package store

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/truth"
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
	if len(a.Q) != len(b.Q) || len(a.U) != len(b.U) {
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

// TestDeltaDurabilityWithoutSave is the point of checkpoint-plus-delta:
// updates that returned success survive a crash even when Save never ran.
// (The seed's whole-file-on-Save design lost everything since the last
// Save.)
func TestDeltaDurabilityWithoutSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(3, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("w2", mkStats(3, 4)); err != nil {
		t.Fatal(err)
	}
	want1, _ := s.Worker("w1")
	want2, _ := s.Worker("w2")
	// No Save, no Close: the "crashed" process just stops. Reopen.
	s2, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	got1, ok1 := s2.Worker("w1")
	got2, ok2 := s2.Worker("w2")
	if !ok1 || !ok2 || !statsEqual(got1, want1) || !statsEqual(got2, want2) {
		t.Fatal("unsaved updates did not survive reopen")
	}
}

// TestTornDeltaTailTolerated simulates a crash mid-append: the torn final
// record is dropped, everything before it survives.
func TestTornDeltaTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(2, 2)); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Worker("w1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	// Append half of a duplicate record — a torn write.
	if err := os.WriteFile(path+".delta", append(data, data[:len(data)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Worker("w1")
	if !ok || !statsEqual(got, want) {
		t.Fatal("intact prefix lost after torn tail")
	}
}

// TestTornDeltaTailThenAppendBoots: a boot that tolerates a torn final
// delta must also cut it off, or the frames appended behind it complete the
// torn header's declared length and the boot after that reads a CRC
// mismatch mid-file and refuses. Two acknowledged merges, a third append
// cut 5 bytes short (a crash mid-append, never acknowledged), reopen, two
// more merges, reopen: all four acknowledged merges are there.
func TestTornDeltaTailThenAppendBoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	merge := func(s *Store, ids ...string) {
		t.Helper()
		for i, id := range ids {
			if err := s.Merge(id, mkStats(2, float64(i+1))); err != nil {
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
	st, err := os.Stat(path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path+".delta", st.Size()-5); err != nil {
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

// TestCrashMidSaveKeepsOldCheckpoint: Save goes through a temp file and an
// atomic rename, so a copy of the state mid-write (the temp file) never
// masks the real checkpoint, a straggler temp file is ignored by Open, and
// the next Save reuses its fixed name instead of leaving it behind forever.
func TestCrashMidSaveKeepsOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Worker("w1")
	// Simulate a crash mid-save: a partially-written temp file next to the
	// checkpoint (the rename never happened).
	if err := os.WriteFile(path+".tmp", []byte(`{"m":2,"wor`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Worker("w1")
	if !ok || !statsEqual(got, want) {
		t.Fatal("checkpoint lost to a crashed save")
	}
	if err := s2.Save(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); n != "store.json" && n != "store.json.delta" {
			t.Fatalf("stray file %q beside the checkpoint after a Save", n)
		}
	}
}

// TestFailedSaveLosesNothing: a Save whose checkpoint cannot be replaced
// (the rename is refused: a non-empty directory sits at the path) returns
// the error, strands no temp file, and leaves the delta log whole — so
// every update from before and after the failure is there at the next Open,
// and the next Save that can succeed does.
func TestFailedSaveLosesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err == nil {
		t.Fatal("Save over a non-empty directory reported success")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed Save left its temp file behind (stat error: %v)", err)
	}
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w2", mkStats(2, 5)); err != nil {
		t.Fatal(err)
	}
	want1, _ := s.Worker("w1")
	want2, _ := s.Worker("w2")
	check := func(when string) {
		t.Helper()
		s2, err := Open(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		got1, ok1 := s2.Worker("w1")
		got2, ok2 := s2.Worker("w2")
		if !ok1 || !ok2 || !statsEqual(got1, want1) || !statsEqual(got2, want2) {
			t.Fatalf("%s: an update made around the failed Save is gone or doubled", when)
		}
	}
	check("reopened from the delta log alone")
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	check("reopened from the retried checkpoint")
}

// TestStaleDeltasNotReappliedAfterSave covers the crash window between the
// checkpoint rename and the delta-log reset: deltas already folded into
// the checkpoint must not double-apply (Merge is not idempotent).
func TestStaleDeltasNotReappliedAfterSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(2, 2)); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	want, _ := s.Worker("w1")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash restored the world to: new checkpoint + old (pre-save) deltas.
	if err := os.WriteFile(path+".delta", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Worker("w1")
	if !ok || !statsEqual(got, want) {
		t.Fatal("stale delta re-applied on top of the checkpoint that folded it in")
	}
	// And new deltas after the reopened Save generation still apply.
	if err := s2.Merge("w1", mkStats(2, 1)); err != nil {
		t.Fatal(err)
	}
	want2, _ := s2.Worker("w1")
	s3, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := s3.Worker("w1")
	if !statsEqual(got2, want2) {
		t.Fatal("post-save delta lost")
	}
}

// TestDeltaMidFileCorruptionRejected: torn-tail tolerance must not mask a
// rotted record with valid data after it.
func TestDeltaMidFileCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w1", mkStats(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge("w2", mkStats(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path + ".delta")
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xff // inside the first record's payload
	if err := os.WriteFile(path+".delta", data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The flip breaks the first frame's CRC while all its bytes are
	// present — that is rot, not a torn append, and silently dropping the
	// valid second record behind it would lose acknowledged state. Open
	// must refuse.
	if _, err := Open(path, 2); err == nil {
		t.Fatal("mid-file delta corruption accepted")
	}
}

// TestSaveResetsDeltaLog: after Save the delta file is empty, so replay
// cost does not grow without bound.
func TestSaveResetsDeltaLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Merge("w", mkStats(2, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err := os.Stat(path + ".delta"); err != nil || fi.Size() == 0 {
		t.Fatalf("delta log missing or empty before save: %v", err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path + ".delta"); err != nil || fi.Size() != 0 {
		t.Fatalf("delta log not reset by save (size %d, err %v)", fi.Size(), err)
	}
	// The checkpoint alone now carries the state.
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), `"w"`) {
		t.Fatalf("checkpoint missing merged worker: %v", err)
	}
}
