package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"docs/internal/snapshot"
	"docs/internal/truth"
	"docs/internal/wal"
)

// TestRecoveryRunsOneRerun: a replay runs the last periodic rerun its log
// reaches and no other, since that one overwrites every rerun before it —
// in a boot, which is what a registry wake runs, and inside the scratch
// replica of the snapshot pass's oracle; Hibernate's pass, which exports
// the live engine, runs none. It holds with every worker anchored by a
// golden gauntlet and with none anchored, and a campaign short of z
// regular answers replays no rerun at all.
func TestRecoveryRunsOneRerun(t *testing.T) {
	const z = 20
	for _, tc := range []struct {
		name            string
		golden, answers int
	}{
		{"unanchored", -1, 10 * z},
		{"anchored", 4, 10 * z},
		{"short", -1, z - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, dir := Config{GoldenCount: tc.golden, HITSize: 4, RerunEvery: z}, t.TempDir()
			live := bootSystem(t, cfg, dir)
			if err := live.Publish(datasetTasks(120)); err != nil {
				t.Fatal(err)
			}
			for i := 0; live.Stats().Answers < int64(tc.answers); i++ {
				w := fmt.Sprintf("w%d", i%7)
				got, err := live.Request(w, 4)
				if err != nil {
					t.Fatal(err)
				}
				for _, tk := range got {
					if live.Stats().Answers == int64(tc.answers) {
						break
					}
					if err := live.Submit(w, tk.ID, max(tk.Truth, 0)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := live.Stats().RerunsCompleted; got != int64(tc.answers/z) {
				t.Fatalf("the live campaign ran %d reruns over %d answers, want %d", got, tc.answers, tc.answers/z)
			}
			want := int64(min(tc.answers/z, 1))
			boot := bootsAsLive(t, live, cfg, dir)
			if got := boot.Stats().RerunsCompleted; got != want {
				t.Errorf("a boot replayed %d reruns, want %d", got, want)
			}
			pass := int64(0)
			if _, err := snapshotReplica(boot, func() error { pass++; return nil }); err != nil || pass != want {
				t.Errorf("a scratch replica of the log replayed %d reruns (%v), want %d", pass, err, want)
			}
			if err := boot.Hibernate(); err != nil {
				t.Fatal(err)
			}
			if got := boot.Stats().RerunsCompleted; got != want {
				t.Errorf("Hibernate's snapshot pass ran %d reruns, want none", got-want)
			}
		})
	}
}

// TestWakeMaterialisesAnsweredTasksOnly: a task costs the truth engine
// nothing until it is answered. A 6,000-task publish materialises no task;
// answers on N distinct tasks — one or two each, single and batched,
// across rerun boundaries — materialise exactly N; and a wake materialises
// exactly those N again, over the snapshot hibernation wrote and over the
// whole log without it.
func TestWakeMaterialisesAnsweredTasksOnly(t *testing.T) {
	const n, answered = 6000, 814
	cfg, dir := Config{GoldenCount: -1, RerunEvery: 100}, t.TempDir()
	s := bootSystem(t, cfg, dir)
	if err := s.Publish(datasetTasks(n)); err != nil {
		t.Fatal(err)
	}
	if got := materialised(s); got != 0 {
		t.Fatalf("a %d-task publish materialised %d tasks, want 0", n, got)
	}
	var batch []BatchItem
	for i := 0; i < answered; i++ {
		id := i * 7 % n // distinct, spread over the publication
		items := []BatchItem{{Worker: fmt.Sprintf("w%d", i%23), Task: id, Choice: i % 2}}
		if i%3 == 0 {
			items = append(items, BatchItem{Worker: fmt.Sprintf("w%d", (i+1)%23), Task: id, Choice: 0})
		}
		if i%2 == 0 {
			batch = append(batch, items...)
			continue
		}
		for _, it := range items {
			if err := s.Submit(it.Worker, it.Task, it.Choice); err != nil {
				t.Fatal(err)
			}
		}
	}
	statuses, err := s.SubmitBatch(batch)
	for _, st := range statuses {
		if !st.OK {
			t.Fatalf("batched answer refused: %s", st.Err)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := materialised(s); got != answered {
		t.Fatalf("answers on %d distinct tasks materialised %d", answered, got)
	}
	if err := s.Hibernate(); err != nil {
		t.Fatal(err)
	}
	for _, snap := range []bool{true, false} {
		woken := bootSystem(t, cfg, dir)
		if got, used := materialised(woken), woken.Recovery().SnapshotUsed; got != answered || used != snap {
			t.Fatalf("a wake (snapshot used: %v, want %v) materialised %d tasks, want the %d answered", used, snap, got, answered)
		}
		if err := woken.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(dir, snapshot.FileName)); snap && err != nil {
			t.Fatal(err)
		}
	}
}

// replayToSubmission applies recs to a fresh serial system until it has
// accepted n regular answers.
func replayToSubmission(t *testing.T, cfg Config, recs []wal.Record, n int64) *System {
	t.Helper()
	s := newSystem(t, cfg)
	t.Cleanup(func() { s.Close() })
	for _, rec := range recs {
		if s.submissions.Load() == n {
			break
		}
		if err := s.applyRecord(&entry{Record: rec}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.submissions.Load(); got != n {
		t.Fatalf("stream holds %d regular answers, want %d", got, n)
	}
	return s
}

// TestPropertyRerunErasesPredecessors: a batch rerun erases every rerun
// before it, which is what lets replay run the last one alone. The same
// logged stream is replayed to its last rerun boundary b once with the
// cadence that produced it (b/z reruns) and once with RerunEvery = b (one
// rerun), and the two fingerprints must be identical — with a golden
// gauntlet (every worker anchored) and without one (every worker starts
// the rerun at the default quality, never at her incremental estimate).
func TestPropertyRerunErasesPredecessors(t *testing.T) {
	const z = 20
	for _, tc := range []struct {
		name   string
		golden int
	}{
		{"anchored", 4},
		{"unanchored", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{GoldenCount: tc.golden, HITSize: 4, AnswersPerTask: 3, RerunEvery: z,
				WALSegmentBytes: 1 << 10}
			recs := runLoggedCampaign(t, cfg, t.TempDir(), 80)
			all := newSystem(t, cfg)
			defer all.Close()
			applyPrefix(t, all, recs)
			b := all.submissions.Load() / z * z
			if b < 2*z {
				t.Fatalf("campaign reached only %d regular answers", all.submissions.Load())
			}

			every := replayToSubmission(t, cfg, recs, b)
			cfg.RerunEvery = int(b)
			once := replayToSubmission(t, cfg, recs, b)
			if got, want := every.reruns.Load(), b/z; got != want {
				t.Fatalf("cadence replay ran %d reruns, want %d", got, want)
			}
			if got := once.reruns.Load(); got != 1 {
				t.Fatalf("single-rerun replay ran %d reruns", got)
			}
			if got, want := once.Fingerprint(), every.Fingerprint(); got != want {
				t.Fatalf("%d reruns vs 1 differ\n%s", b/z, diff(got, want))
			}
		})
	}
}

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
	woken = bootsAsLive(t, woken, cfg, dir)
	want := woken.Fingerprint()
	if reruns := woken.Stats().RerunsCompleted; !woken.Recovery().SnapshotUsed || reruns != 0 || ingests(t, woken, restored()) != 7 {
		t.Fatalf("wake with 7 answers past its snapshot: used %v, %d reruns, %d ingests; want 0 and 7",
			woken.Recovery().SnapshotUsed, reruns, ingests(t, woken, restored()))
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
			t.Fatalf("%s: the boot differs from the live state:\n%s", name, diff(got, want))
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
	cfg, dir := Config{GoldenCount: 4, HITSize: 4, RerunEvery: 10}, t.TempDir()
	live := bootSystem(t, cfg, dir)
	m := live.m
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
	if err := live.store.Put("late", seeded); err != nil {
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
	if reruns := bootsAsLive(t, live, cfg, dir).Stats().RerunsCompleted; reruns != 1 {
		t.Fatalf("the boot ran %d reruns, want 1", reruns)
	}
}
