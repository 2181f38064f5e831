package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"docs/internal/snapshot"
	"docs/internal/store"
	"docs/internal/truth"
)

// ingests is how many answers a freshly booted system ran through the
// truth engine, read off its epoch: a task's materialisation bumps it once,
// RestoreTask once per installed state, a rerun's Reseed once, the install
// of a snapshot covering a rerun once more (its ReseedLatent; every snapshot
// here covers one), and every ingested answer once.
func ingests(t *testing.T, s *System, restored int) int64 {
	t.Helper()
	swaps := s.Stats().RerunsCompleted
	if restored > 0 {
		swaps++
	}
	return int64(s.Stats().SnapshotEpoch) - int64(materialised(s)) - int64(restored) - swaps
}

// TestReplaySkipsOverwrittenMath pins the skip rule by counts: a regular
// answer runs the engine in replay only when nothing later in the same
// replay overwrites its effect. A wake whose snapshot covers the whole log
// ingests nothing and reruns nothing; one whose snapshot ends 7 answers
// short of the log ingests those 7; a boot with no snapshot runs the last
// rerun and ingests only the answers past its boundary; and a boot over a
// rejected snapshot is that same full replay, to the same fingerprint.
func TestReplaySkipsOverwrittenMath(t *testing.T) {
	const z, n = 20, 200
	cfg := Config{GoldenCount: -1, HITSize: 4, RerunEvery: z}
	dir := t.TempDir()
	boot := func() (*System, RecoveryInfo) {
		t.Helper()
		s := newSystem(t, cfg)
		info, err := s.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s, info
	}
	answer := func(s *System, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Submit(fmt.Sprintf("w%d", i%9), i, i%2); err != nil {
				t.Fatal(err)
			}
		}
	}
	restored := func() int {
		t.Helper()
		st, err := snapshot.Read(dir)
		if err != nil || st == nil {
			t.Fatalf("no snapshot to count: %v", err)
		}
		return len(st.TaskStates)
	}

	live, _ := boot()
	if err := live.Publish(indexTasks(n+50, live.m)); err != nil {
		t.Fatal(err)
	}
	answer(live, 0, n)
	if err := live.Hibernate(); err != nil {
		t.Fatal(err)
	}
	woken, info := boot()
	if !info.SnapshotUsed || info.Records != 0 {
		t.Fatalf("wake of a hibernated campaign: %+v", info)
	}
	if reruns := woken.Stats().RerunsCompleted; reruns != 0 || ingests(t, woken, restored()) != 0 {
		t.Fatalf("wake over a snapshot covering %d answers ran %d reruns and %d ingests, want none",
			n, reruns, ingests(t, woken, restored()))
	}

	// Seven answers past the snapshot: the wake ingests exactly those.
	answer(woken, n, n+7)
	want := woken.Fingerprint()
	if err := woken.Close(); err != nil {
		t.Fatal(err)
	}
	woken, info = boot()
	if reruns := woken.Stats().RerunsCompleted; !info.SnapshotUsed || reruns != 0 || ingests(t, woken, restored()) != 7 {
		t.Fatalf("wake with 7 answers past its snapshot: used %v, %d reruns, %d ingests; want 0 and 7",
			info.SnapshotUsed, reruns, ingests(t, woken, restored()))
	}
	if got := woken.Fingerprint(); got != want {
		t.Fatalf("wake differs from the live state:\n%s", DiffFingerprints(got, want, 4))
	}
	woken.Close()

	path := filepath.Join(dir, snapshot.FileName)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"no snapshot": nil, "a rejected snapshot": image[:len(image)-3]} {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if data != nil {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, info := boot()
		if info.SnapshotUsed || (data != nil) != (info.SnapshotRejected != "") {
			t.Fatalf("%s: used %v, rejected %q", name, info.SnapshotUsed, info.SnapshotRejected)
		}
		if reruns := s.Stats().RerunsCompleted; reruns != 1 || ingests(t, s, 0) != 7 {
			t.Fatalf("%s: %d reruns and %d ingests, want the last rerun and the 7 answers past it", name, reruns, ingests(t, s, 0))
		}
		if got := s.Fingerprint(); got != want {
			t.Fatalf("%s: the boot differs from the live state:\n%s", name, DiffFingerprints(got, want, 4))
		}
		s.Close()
	}
}

// TestSkippedAnswerStillMeetsItsWorker: a worker's regular answers can
// precede a seed of her from the store — she answered before any other
// campaign profiled her, then asked for tasks. Live, her first answer made
// her known to the engine at the prior, so the seed's set-if-absent install
// lost and only pinned her anchor. Replay skips those answers' math (the
// rerun after them overwrites it), but must still make her known, or the
// seed would win and leave its bits in every domain the rerun does not
// overwrite.
func TestSkippedAnswerStillMeetsItsWorker(t *testing.T) {
	m := newSystem(t, Config{}).m
	st, err := store.Open("", m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := Config{Store: st, GoldenCount: 4, HITSize: 4, RerunEvery: 10}
	dir := t.TempDir()
	live := newSystem(t, cfg)
	if _, err := live.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := live.Publish(concTasks(m, 60)); err != nil {
		t.Fatal(err)
	}
	regular := live.InferTasks()
	for i := 0; i < 3; i++ {
		if err := live.Submit("late", regular[i].ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	seeded := truth.NewStats(m)
	for k := range seeded.Q {
		seeded.Q[k], seeded.U[k] = 0.9, 2
	}
	if err := st.Put("late", seeded); err != nil {
		t.Fatal(err)
	}
	if _, err := live.Request("late", 4); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 15; i++ {
		if err := live.Submit(fmt.Sprintf("w%d", i), regular[i].ID, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := live.Fingerprint()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	boot := newSystem(t, cfg)
	defer boot.Close()
	if _, err := boot.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if reruns := boot.Stats().RerunsCompleted; reruns != 1 {
		t.Fatalf("the boot ran %d reruns, want 1", reruns)
	}
	if got := boot.Fingerprint(); got != want {
		t.Fatalf("the boot differs from the live state:\n%s", DiffFingerprints(got, want, 4))
	}
}
