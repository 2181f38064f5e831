package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"docs/internal/truth"
	"docs/internal/wal"
)

func TestOpenMemoryOnly(t *testing.T) {
	s, err := Open("", 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("fresh store has %d workers", s.Len())
	}
	if s.Persistent() {
		t.Error("a memory-only store reports itself persistent")
	}
	if err := s.Close(); err != nil {
		t.Errorf("memory-only Close: %v", err)
	}
}

// TestOpenErrors: a bad domain count, and a path that is a regular file — a
// store written by an older version was one JSON file — are refused, the
// latter with an error naming the file.
func TestOpenErrors(t *testing.T) {
	if _, err := Open("", 0); err == nil {
		t.Error("m=0 accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad, 3); err == nil || !strings.Contains(err.Error(), bad) {
		t.Errorf("a regular file as the store's path: error %v, want one naming %s", err, bad)
	}
}

func TestPutWorkerRoundTrip(t *testing.T) {
	s, _ := Open("", 2)
	st := truth.NewStats(2)
	st.Q[0] = 0.9
	st.U[0] = 4
	if err := s.Put("alice", st); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Worker("alice")
	if !ok {
		t.Fatal("worker missing after Put")
	}
	if got.Q[0] != 0.9 || got.U[0] != 4 {
		t.Errorf("round trip lost data: %+v", got)
	}
	// Returned stats are a copy.
	got.Q[0] = 0.1
	again, _ := s.Worker("alice")
	if again.Q[0] != 0.9 {
		t.Error("Worker returned a live reference")
	}
	if _, ok := s.Worker("bob"); ok {
		t.Error("missing worker found")
	}
}

func TestPutValidates(t *testing.T) {
	s, _ := Open("", 2)
	bad := &truth.Stats{Q: []float64{0.5}, U: []float64{1}}
	if err := s.Put("x", bad); err == nil {
		t.Error("wrong-size stats accepted")
	}
}

// TestMergeTheorem1: sessions in two scopes fold into the worker's value
// per Theorem 1.
func TestMergeTheorem1(t *testing.T) {
	s, _ := Open("", 1)
	first := &truth.Stats{Q: []float64{0.8}, U: []float64{4}}
	if err := s.Session("a", "w", first); err != nil {
		t.Fatal(err)
	}
	second := &truth.Stats{Q: []float64{0.5}, U: []float64{1}}
	if err := s.Session("b", "w", second); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Worker("w")
	want := (0.8*4 + 0.5*1) / 5
	if d := got.Q[0] - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("merged Q = %g, want %g", got.Q[0], want)
	}
	if got.U[0] != 5 {
		t.Errorf("merged U = %g, want 5", got.U[0])
	}
}

// fold is what Worker must return: base (or the prior) with the sessions
// merged in the order given.
func fold(base *truth.Stats, m int, sessions ...*truth.Stats) *truth.Stats {
	v := truth.NewStats(m)
	if base != nil {
		v = base.Clone()
	}
	for _, st := range sessions {
		v.Merge(st)
	}
	return v
}

// TestSessionReplacesItsScope: a session replaces the one its scope held and
// no other; the worker's value is her base — the profiling merge — with the
// sessions merged in scope order, whatever order they arrived in; a
// profile's anchor is the value right after its merge; and all of it
// reopens bit for bit.
func TestSessionReplacesItsScope(t *testing.T) {
	const m = 2
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	a1, a2, b := mkStats(m, 1), mkStats(m, 2), mkStats(m, 3)
	for _, step := range []struct {
		scope string
		st    *truth.Stats
		want  *truth.Stats
	}{
		{"b", b, fold(nil, m, b)},
		{"a", a1, fold(nil, m, a1, b)},
		{"a", a2, fold(nil, m, a2, b)},
	} {
		if err := s.Session(step.scope, "w", step.st); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Worker("w"); !statsEqual(got, step.want) {
			t.Fatalf("after a session in %q: %+v, want %+v", step.scope, got, step.want)
		}
	}
	profile := mkStats(m, 4)
	anchor, _, err := s.MergeProfile("camp/w", "w", profile)
	if err != nil {
		t.Fatal(err)
	}
	want := fold(fold(nil, m, profile), m, a2, b)
	if got, _ := s.Worker("w"); !statsEqual(got, want) || !statsEqual(anchor, want) {
		t.Fatalf("after profiling: worker %+v, anchor %+v, want both %+v", got, anchor, want)
	}
	if err := s.Session("", "w", b); err == nil {
		t.Error("a session with an empty scope accepted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got, _ := again.Worker("w"); !statsEqual(got, want) {
		t.Errorf("reopened worker %+v, want %+v", got, want)
	}
	if got, _ := again.ProfileAnchor("camp/w"); !statsEqual(got, want) {
		t.Errorf("reopened anchor %+v, want %+v", got, want)
	}
}

// TestSessionRepeatWritesNothing: a session bit-equal to the one its scope
// holds appends no record, before and after a reopen, while one that differs
// by a single bit — a −0 weight — appends one.
func TestSessionRepeatWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := mkStats(2, 2)
	for i := 0; i < 3; i++ {
		if err := s.Session("camp", "w", st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Session("camp", "w", st); err != nil {
		t.Fatal(err)
	}
	if got := records(t, path); got != 1 {
		t.Fatalf("four bit-equal sessions left %d records, want 1", got)
	}
	negZero := truth.NewStats(2)
	negZero.U[0] = math.Copysign(0, -1)
	for _, st := range []*truth.Stats{truth.NewStats(2), negZero} {
		if err := s.Session("camp", "w", st); err != nil {
			t.Fatal(err)
		}
	}
	if got := records(t, path); got != 3 {
		t.Fatalf("two differing sessions left %d records, want 3", got)
	}
}

// TestOlderMintedSessionStillFolds: builds before every campaign had a name
// wrote a standalone System's session under a scope "#n" the store minted.
// Nothing mints one any more, but such a log still opens: its "#n" session is
// an ordinary held scope, folded into the worker's value beside a named
// campaign's session, exactly as before the reopen.
func TestOlderMintedSessionStillFolds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for scope, st := range map[string]*truth.Stats{"#2": mkStats(2, 3), "camp": mkStats(2, 1)} {
		if err := s.Session(scope, "w", st); err != nil {
			t.Fatal(err)
		}
	}
	want, _ := s.Worker("w")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, ok := s.Worker("w")
	if !ok || !sameBits(got, want) {
		t.Fatalf("reopened worker = %+v, want %+v", got, want)
	}
	for k, u := range got.U {
		if u != 3+1 {
			t.Fatalf("weight[%d] = %g, want both sessions' 3 + 1", k, u)
		}
	}
}

// TestMergeLogRefused: a log holding plain merges (op 2, which nothing
// writes any more) beside puts, profiles and sessions does not open: Open
// refuses it with an error naming op 2 and the last commit that reads it,
// and leaves every byte of the log as it was.
func TestMergeLogRefused(t *testing.T) {
	const m = 2
	path := filepath.Join(t.TempDir(), "store")
	lg, err := wal.Open(path, wal.Options{Sync: wal.SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	put, x, y, p, sess := mkStats(m, 1), mkStats(m, 2), mkStats(m, 3), mkStats(m, 4), mkStats(m, 5)
	for _, u := range []update{
		{op: opMerge, id: "w1", st: x},
		{op: opMerge, id: "w1", st: y},
		{op: opPut, id: "w2", st: put},
		{op: opMerge, id: "w2", st: x},
		{op: opProfile, id: "w2", key: "camp/w2", st: p},
		{op: opSession, id: "w2", key: "camp", st: sess},
		{op: opMerge, id: "w2", st: y},
	} {
		blob, err := encodeUpdate(u, m)
		if err != nil {
			t.Fatal(err)
		}
		pending, err := lg.Reserve(wal.Record{Kind: wal.KindStore, Worker: u.id, Blob: blob})
		if err == nil {
			err = pending.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	readLog := func() map[string]string {
		entries, err := os.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(path, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	want := readLog()
	s, err := Open(path, m)
	if err == nil {
		s.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "op 2") || !strings.Contains(err.Error(), "a3e04fd") {
		t.Errorf("Open: %v, want a refusal naming op 2 and a3e04fd", err)
	}
	if got := readLog(); !reflect.DeepEqual(got, want) {
		t.Error("the refused log changed")
	}
}

// TestSaveLoadRoundTrip: there is no Save — every update is its own record
// — so what a closed store held is what a reopen finds, and a reopen over
// another domain count is refused at the first record.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := truth.NewStats(2)
	st.Q[1] = 0.85
	st.U[1] = 7
	if err := s.Put("carol", st); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reloaded, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	got, ok := reloaded.Worker("carol")
	if !ok {
		t.Fatal("carol missing after reload")
	}
	if got.Q[1] != 0.85 || got.U[1] != 7 {
		t.Errorf("reload lost data: %+v", got)
	}

	// Wrong m is rejected.
	if _, err := Open(path, 5); err == nil {
		t.Error("log with mismatched m accepted")
	}
}

func TestWorkersSorted(t *testing.T) {
	s, _ := Open("", 1)
	for _, id := range []string{"zoe", "amy", "mia"} {
		if err := s.Put(id, truth.NewStats(1)); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.Workers()
	if len(ids) != 3 || ids[0] != "amy" || ids[2] != "zoe" {
		t.Errorf("Workers = %v", ids)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open("", 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('a' + g))
			for i := 0; i < 100; i++ {
				session := &truth.Stats{Q: []float64{0.5, 0.5}, U: []float64{1, 1}}
				if err := s.Session(fmt.Sprintf("c%d", i), id, session); err != nil {
					t.Error(err)
					return
				}
				s.Worker(id)
				s.Len()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
	got, _ := s.Worker("a")
	if got.U[0] != 100 {
		t.Errorf("merged weight = %g, want 100", got.U[0])
	}
}

func TestMergeProfileOnce(t *testing.T) {
	s, _ := Open("", 2)
	session := &truth.Stats{Q: []float64{0.9, 0.8}, U: []float64{4, 4}}
	anchor, applied, err := s.MergeProfile("camp/alice", "alice", session)
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("first MergeProfile not applied")
	}
	got, _ := s.Worker("alice")
	if got.Q[0] != anchor.Q[0] || got.U[0] != anchor.U[0] {
		t.Errorf("anchor %+v differs from post-merge record %+v", anchor, got)
	}

	// Re-applying under the same profile ID is a no-op that returns the
	// ORIGINAL anchor — even with different session stats.
	other := &truth.Stats{Q: []float64{0.1, 0.1}, U: []float64{9, 9}}
	again, applied, err := s.MergeProfile("camp/alice", "alice", other)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Error("second MergeProfile applied")
	}
	for k := range again.Q {
		if again.Q[k] != anchor.Q[k] || again.U[k] != anchor.U[k] {
			t.Fatalf("replayed anchor %+v differs from recorded %+v", again, anchor)
		}
	}
	unchanged, _ := s.Worker("alice")
	if unchanged.U[0] != got.U[0] {
		t.Error("duplicate MergeProfile mutated the worker record")
	}

	// A different scope for the same worker is a distinct profile.
	_, applied, err = s.MergeProfile("other/alice", "alice", session)
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Error("distinct profile ID not applied")
	}

	if _, _, err := s.MergeProfile("", "alice", session); err == nil {
		t.Error("empty profile ID accepted")
	}
}

// TestProfileDeltaReplay: a profiling merge is one record, and a reopen
// replays it into both the ledger and the worker's record — twice over, so
// a replayed profile is applied once per reopen and never again.
func TestProfileDeltaReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	session := &truth.Stats{Q: []float64{0.9, 0.8}, U: []float64{4, 4}}
	anchor, _, err := s.MergeProfile("camp/alice", "alice", session)
	if err != nil {
		t.Fatal(err)
	}

	// No Close: the profile merge must survive on the log alone.
	for reopen := 1; reopen <= 2; reopen++ {
		reloaded, err := Open(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := reloaded.ProfileAnchor("camp/alice")
		if !ok || !statsEqual(got, anchor) {
			t.Fatalf("reopen %d: replayed anchor %+v (found %v), want %+v", reopen, got, ok, anchor)
		}
		if w, _ := reloaded.Worker("alice"); !statsEqual(w, anchor) {
			t.Errorf("reopen %d: replayed worker record %+v, want anchor %+v", reopen, w, anchor)
		}
		if ids := reloaded.ProfileIDs(); len(ids) != 1 || ids[0] != "camp/alice" {
			t.Errorf("reopen %d: ProfileIDs = %v", reopen, ids)
		}
		if err := reloaded.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
