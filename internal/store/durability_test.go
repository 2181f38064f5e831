package store

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/truth"
	"docs/internal/wal"
)

func mkStats(m int, base float64) *truth.Stats {
	st := truth.NewStats(m)
	for k := 0; k < m; k++ {
		st.Q[k] = 0.5 + base/10
		st.U[k] = base
	}
	return st
}

func statsEqual(a, b *truth.Stats) bool {
	if a == nil || b == nil || len(a.Q) != len(b.Q) || len(a.U) != len(b.U) {
		return false
	}
	for k := range a.Q {
		if math.Float64bits(a.Q[k]) != math.Float64bits(b.Q[k]) ||
			math.Float64bits(a.U[k]) != math.Float64bits(b.U[k]) {
			return false
		}
	}
	return true
}

// segment returns the path of the store log's one segment (the log rotates
// at 8 MiB; no test here comes near it).
func segment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("store log %s holds segments %v (%v), want one", dir, segs, err)
	}
	return segs[0]
}

// records counts the store log's intact records.
func records(t *testing.T, dir string) int {
	t.Helper()
	st, err := wal.Replay(dir, func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return st.Records
}

// TestDeltaDurabilityWithoutSave: an update that returned success is on
// disk — a process that just stops, without a Close, loses none of them.
func TestDeltaDurabilityWithoutSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c1", "w1", mkStats(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c2", "w1", mkStats(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("w2", mkStats(3, 4)); err != nil {
		t.Fatal(err)
	}
	want1, _ := s.Worker("w1")
	want2, _ := s.Worker("w2")
	// No Close: the "crashed" process just stops. Reopen.
	s2, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	got1, ok1 := s2.Worker("w1")
	got2, ok2 := s2.Worker("w2")
	if !ok1 || !ok2 || !statsEqual(got1, want1) || !statsEqual(got2, want2) {
		t.Fatal("acknowledged updates did not survive reopen")
	}
}

// TestTornDeltaTailTolerated simulates a crash mid-append: the torn final
// record is dropped, everything before it survives.
func TestTornDeltaTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c3", "w1", mkStats(2, 2)); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Worker("w1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segment(t, path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Append half of a duplicate record — a torn write.
	frames, err := crashtest.SegmentFrames(seg)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[frames[len(frames)-1].Start:]
	if err := os.WriteFile(seg, append(data, rec[:len(rec)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Worker("w1")
	if !ok || !statsEqual(got, want) {
		t.Fatal("intact prefix lost after torn tail")
	}
}

// TestTornDeltaTailThenAppendBoots: the log's torn-tail rule — a boot that
// tolerates a torn final record also cuts it off, so records appended
// behind it never complete the torn header's declared length. Two
// acknowledged merges, a third append cut 5 bytes short (a crash
// mid-append, never acknowledged), reopen, two more merges, reopen: all
// four acknowledged merges are there.
func TestTornDeltaTailThenAppendBoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	merge := func(s *Store, ids ...string) {
		t.Helper()
		for i, id := range ids {
			if err := s.Session("c4", id, mkStats(2, float64(i+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	merge(s, "w1", "w2", "torn")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segment(t, path)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, 2)
	if err != nil {
		t.Fatalf("boot over a torn tail: %v", err)
	}
	merge(s2, "w3", "w4")
	want := map[string]*truth.Stats{}
	for _, id := range []string{"w1", "w2", "w3", "w4"} {
		if want[id], _ = s2.Worker(id); want[id] == nil {
			t.Fatalf("second boot lost %s", id)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(path, 2)
	if err != nil {
		t.Fatalf("boot after appending behind a torn tail: %v", err)
	}
	defer s3.Close()
	for id, w := range want {
		if got, ok := s3.Worker(id); !ok || !statsEqual(got, w) {
			t.Errorf("third boot: merge for %s missing or changed", id)
		}
	}
	if _, ok := s3.Worker("torn"); ok {
		t.Error("the torn, never-acknowledged merge came back")
	}
}

// TestCrashMidSaveKeepsOldCheckpoint: the store writes no file beside its
// log — no checkpoint, no temp — so the only thing a crash can leave
// half-written is the log's tail. After a life of updates and reopens the
// directory holds segments alone, and a crash that tore the very first
// record a fresh store ever wrote reopens to an empty store that takes
// updates again.
func TestCrashMidSaveKeepsOldCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c5", "w1", mkStats(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segment(t, path)
	if err := os.Truncate(seg, 3); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, 2)
	if err != nil {
		t.Fatalf("boot over a torn first record: %v", err)
	}
	if s2.Len() != 0 {
		t.Fatalf("the torn, never-acknowledged record left %d workers", s2.Len())
	}
	if err := s2.Put("w2", mkStats(2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if ids := s3.Workers(); len(ids) != 1 || ids[0] != "w2" {
		t.Fatalf("workers after the torn first record = %v, want [w2]", ids)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".wal") {
			t.Fatalf("stray file %q beside the store log", e.Name())
		}
	}
}

// TestFailedSaveLosesNothing: an update the log refuses — here a record
// past wal.MaxPayload — returns the error and changes nothing, in memory or
// on disk; the updates on either side of it are all there at the next Open.
func TestFailedSaveLosesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c6", "w1", mkStats(2, 3)); err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("w", wal.MaxPayload)
	if err := s.Session("c7", huge, mkStats(2, 5)); err == nil {
		t.Fatal("a record past MaxPayload reported success")
	}
	if _, _, err := s.MergeProfile("camp/"+huge, huge, mkStats(2, 5)); err == nil {
		t.Fatal("a profile record past MaxPayload reported success")
	}
	if _, ok := s.Worker(huge); ok || len(s.ProfileIDs()) != 0 {
		t.Fatal("a refused update changed the store in memory")
	}
	if err := s.Session("c8", "w2", mkStats(2, 5)); err != nil {
		t.Fatal(err)
	}
	want1, _ := s.Worker("w1")
	want2, _ := s.Worker("w2")
	s2, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got1, ok1 := s2.Worker("w1")
	got2, ok2 := s2.Worker("w2")
	if !ok1 || !ok2 || !statsEqual(got1, want1) || !statsEqual(got2, want2) || s2.Len() != 2 {
		t.Fatal("an update made around the refused one is gone, doubled, or joined by it")
	}
}

// TestStaleDeltasNotReappliedAfterSave: each record applies exactly once
// however often the log is reopened — two reopens in a row land on the same
// bits, and a session in another scope made after them applies once more
// and no more.
func TestStaleDeltasNotReappliedAfterSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c9", "w1", mkStats(2, 2)); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Worker("w1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for reopen := 1; reopen <= 2; reopen++ {
		s2, err := Open(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Worker("w1"); !ok || !statsEqual(got, want) {
			t.Fatalf("reopen %d: a merge was applied again", reopen)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s3, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Session("c10", "w1", mkStats(2, 1)); err != nil {
		t.Fatal(err)
	}
	want2, _ := s3.Worker("w1")
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if got2, _ := s4.Worker("w1"); !statsEqual(got2, want2) {
		t.Fatal("the merge after the reopens was lost or doubled")
	}
}

// TestDeltaMidFileCorruptionRejected: torn-tail tolerance must not mask a
// rotted record with valid data after it.
func TestDeltaMidFileCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c11", "w1", mkStats(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Session("c12", "w2", mkStats(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segment(t, path)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The flip breaks the first frame's CRC while all its bytes are
	// present — that is rot, not a torn append, and silently dropping the
	// valid second record behind it would lose acknowledged state. Open
	// must refuse.
	if _, err := Open(path, 2); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestSaveResetsDeltaLog: the log holds one record per update and nothing
// else — no checkpoint to reset, no record for a read, for a profiling
// merge replayed under an ID the store already holds, or for a session
// bit-equal to the one its scope holds.
func TestSaveResetsDeltaLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Session(fmt.Sprintf("c%d", i), "w", mkStats(2, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.MergeProfile("camp/w", "w", mkStats(2, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Session("c4", "w", mkStats(2, 4)); err != nil {
			t.Fatal(err)
		}
		s.Worker("w")
		s.ProfileAnchor("camp/w")
	}
	if got := records(t, path); got != 6 {
		t.Fatalf("the log holds %d records, want 6 (five sessions, one profile)", got)
	}
}
