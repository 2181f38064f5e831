package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/wal"
)

// The crash-injection harness. One uninterrupted serial campaign runs with
// the WAL armed; the resulting log is then "killed" at randomized points —
// clean record boundaries and torn mid-record cuts — and each surviving
// prefix is recovered into a fresh System. The recovered state must be
// bit-identical (float bits included) to a reference System that applied
// exactly the surviving records through the ordinary serial path. That is
// the durability contract: recovery IS the serial replay the concurrency
// work proved equivalent to live serving.

// fingerprint is the state comparator the kill-point sweeps are built on;
// the implementation moved to the exported (*System).Fingerprint so the
// campaign-registry crash suite can make the same bit-exact comparison.
func fingerprint(s *System) string { return s.Fingerprint() }

// runLoggedCampaign drives a deterministic serial campaign with the WAL
// armed at dir and returns the record stream it wrote (publish + answers,
// in durable order).
func runLoggedCampaign(t *testing.T, cfg Config, dir string, nTasks int) []wal.Record {
	t.Helper()
	return runLoggedTasks(t, cfg, dir, concTasks(kb.MustDefault().Domains().Size(), nTasks))
}

// runLoggedTasks is runLoggedCampaign over the caller's task set.
func runLoggedTasks(t *testing.T, cfg Config, dir string, tasks []*model.Task) []wal.Record {
	t.Helper()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	r := mathx.NewRand(42)
	for i := 0; ; i++ {
		w := fmt.Sprintf("w%d", i%11)
		got, err := s.Request(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		for _, tk := range got {
			c := tk.Truth
			if c == model.NoTruth {
				c = 0
			} else if !goldenSet[tk.ID] && r.Float64() >= 0.85 {
				c = 1 - c
			}
			if err := s.Submit(w, tk.ID, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	return crashtest.ReadStream(t, dir)
}

// applyPrefix replays records through a WAL-less reference system — the
// uninterrupted serial run the recovered state must match bit for bit.
func applyPrefix(t *testing.T, s *System, recs []wal.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := s.applyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// sweepKills boots the crash image of log at every kill point, sorted by
// Surviving, and holds each boot bit-identical to a WAL-less reference that
// applied exactly the surviving records. The reference advances
// incrementally, so a sweep costs one extra serial pass plus the boots.
// then, when non-nil, runs after each boot is checked and closed, with the
// image and the reference's fingerprint.
func sweepKills(t *testing.T, cfg Config, log *crashtest.Log, kills []crashtest.Kill, then func(i int, k crashtest.Kill, img, want string)) {
	t.Helper()
	ref := newSystem(t, cfg)
	defer ref.Close()
	applied := 0
	refPrint := fingerprint(ref)
	for i, k := range kills {
		if k.Surviving > applied {
			applyPrefix(t, ref, log.Records[applied:k.Surviving])
			applied = k.Surviving
			refPrint = fingerprint(ref)
		}
		img := t.TempDir()
		log.Cut(t, img, k)
		rec := newSystem(t, cfg)
		info, err := rec.Recover(img)
		if err != nil {
			t.Fatalf("kill %d (surviving=%d torn=%d): recover: %v", i, k.Surviving, k.Torn, err)
		}
		if info.Records != k.Surviving {
			t.Fatalf("kill %d: recovered %d records, want %d (torn=%d)", i, info.Records, k.Surviving, k.Torn)
		}
		if info.SnapshotUsed {
			t.Fatalf("kill %d: a cut image holds no snapshot, yet the boot used one", i)
		}
		if k.Torn > 0 && !info.TornTail {
			t.Errorf("kill %d: torn cut not reported as torn tail", i)
		}
		if got := fingerprint(rec); got != refPrint {
			t.Fatalf("kill %d (surviving=%d torn=%d): recovered state differs from serial reference\n%s", i, k.Surviving, k.Torn,
				crashtest.Report(t, fmt.Sprintf("kill-%03d", i), DiffFingerprints(got, refPrint, 8)))
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if then != nil {
			then(i, k, img, refPrint)
		}
	}
}

// TestCrashInjectionRecoveryExact is the acceptance test: 100 randomized
// kill points over a logged campaign (clean boundaries and torn final
// records; the last always "everything but a torn last record"), each
// recovered and compared bit-identical against the serial reference.
func TestCrashInjectionRecoveryExact(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	srcDir := t.TempDir()
	runLoggedCampaign(t, cfg, srcDir, 60)
	log := crashtest.ReadLog(t, srcDir)
	n := len(log.Records)
	if n < 50 {
		t.Fatalf("campaign produced only %d records", n)
	}
	sweepKills(t, cfg, log, crashtest.Kills(mathx.NewRand(7), 99, n, 0, crashtest.Kill{Surviving: n - 1, Torn: 5}), nil)
}

// TestCrashRecoveryThenContinueServing recovers from a mid-campaign crash
// and pushes the remaining answer stream through the recovered system; the
// final state must equal the uninterrupted run's. This is the "restart
// under traffic" scenario: sequence numbers continue, re-logging works,
// and nothing double-applies.
func TestCrashRecoveryThenContinueServing(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	srcDir := t.TempDir()
	recs := runLoggedCampaign(t, cfg, srcDir, 40)
	log := crashtest.ReadLog(t, srcDir)

	full := newSystem(t, cfg)
	applyPrefix(t, full, recs)
	want := fingerprint(full)

	for _, cut := range []int{1, len(recs) / 3, len(recs) / 2, len(recs) - 1} {
		crashDir := t.TempDir()
		log.Cut(t, crashDir, crashtest.Kill{Surviving: cut})
		s := newSystem(t, cfg)
		if _, err := s.Recover(crashDir); err != nil {
			t.Fatal(err)
		}
		// Every cut keeps the publish record (seq 1), so the lost tail is
		// answers alone; resubmitting them is the traffic that resumes.
		for _, rec := range recs[cut:] {
			if rec.Kind != wal.KindAnswer {
				t.Fatalf("cut=%d: the lost tail holds a kind-%d record; only answers can be resubmitted", cut, rec.Kind)
			}
			if err := s.Submit(rec.Worker, rec.Task, rec.Choice); err != nil {
				t.Fatal(err)
			}
		}
		if got := fingerprint(s); got != want {
			t.Fatalf("cut=%d: continued state differs from uninterrupted run", cut)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// And the continued log must itself recover to the same state.
		s2 := newSystem(t, cfg)
		if _, err := s2.Recover(crashDir); err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(s2); got != want {
			t.Fatalf("cut=%d: re-recovery of continued log differs", cut)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentServeWithWALRecovers hammers the system from many
// goroutines with the WAL armed (group commit under real contention, run
// with -race), then recovers the log into a fresh system. The recovered
// answer count must equal what the live system accepted, and the final
// batch inference over the recovered state must match the live system's
// bit for bit — the WAL order is the same chronological order the serial
// replay equivalence is proven against.
func TestConcurrentServeWithWALRecovers(t *testing.T) {
	cfg := Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 5, RerunEvery: 40,
		AsyncRerun: true, WALSegmentBytes: 1 << 11}
	dir := t.TempDir()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(concTasks(s.m, 120)); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	hammer(t, s, 8, 0.9, goldenSet)
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	accepted := s.Stats().Answers
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := newSystem(t, cfg)
	info, err := r.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if info.TornTail {
		t.Error("graceful shutdown left a torn tail")
	}
	if got := r.Stats().Answers; got != accepted {
		t.Fatalf("recovered %d answers, live system accepted %d", got, accepted)
	}
	res2, err := r.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Truth) != len(res2.Truth) {
		t.Fatalf("result sizes differ: %d vs %d", len(res.Truth), len(res2.Truth))
	}
	for i := range res.Truth {
		if res.Truth[i] != res2.Truth[i] {
			t.Fatalf("task %d: live truth %d, recovered truth %d", i, res.Truth[i], res2.Truth[i])
		}
		for j := range res.S[i] {
			if math.Float64bits(res.S[i][j]) != math.Float64bits(res2.S[i][j]) {
				t.Fatalf("task %d choice %d: confidence differs in the last ulp", i, j)
			}
		}
	}
}

// TestRecoveryDeterminism recovers the same directory twice; the two
// Systems must fingerprint identically (replay is a pure function of the
// log bytes).
func TestRecoveryDeterminism(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20}
	dir := t.TempDir()
	runLoggedCampaign(t, cfg, dir, 30)
	a := newSystem(t, cfg)
	if _, err := a.Recover(dir); err != nil {
		t.Fatal(err)
	}
	b := newSystem(t, cfg)
	if _, err := b.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("two recoveries of the same log differ")
	}
	a.Close()
	b.Close()
}

// TestRecoveryDoesNotDoubleMergePersistentStore: golden profiling merges
// worker stats into the long-run store at serving time, and a file-backed
// store already holds (and durably logged) those merges. Replaying the
// WAL must not merge them again — before the fix every restart compounded
// each profiled worker's statistics.
func TestRecoveryDoesNotDoubleMergePersistentStore(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(t.TempDir(), "store")
	newSys := func() *System {
		st, err := store.Open(storePath, kb.MustDefault().Domains().Size())
		if err != nil {
			t.Fatal(err)
		}
		s := newSystem(t, Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3,
			RerunEvery: -1, Store: st})
		return s
	}

	s := newSys()
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(concTasks(s.m, 20)); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	// One worker clears the golden gauntlet (profiling merges into store).
	for done := 0; done < len(goldenSet); {
		got, err := s.Request("w0", 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range got {
			if !goldenSet[tk.ID] {
				t.Fatalf("unprofiled worker served regular task %d", tk.ID)
			}
			if err := s.Submit("w0", tk.ID, tk.Truth); err != nil {
				t.Fatal(err)
			}
			done++
		}
	}
	want, ok := s.store.Worker("w0")
	if !ok {
		t.Fatal("profiling did not reach the store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for restart := 0; restart < 3; restart++ {
		r := newSys()
		if _, err := r.Recover(dir); err != nil {
			t.Fatal(err)
		}
		got, ok := r.store.Worker("w0")
		if !ok {
			t.Fatal("store lost the worker across restart")
		}
		for k := range got.U {
			if math.Float64bits(got.U[k]) != math.Float64bits(want.U[k]) ||
				math.Float64bits(got.Q[k]) != math.Float64bits(want.Q[k]) {
				t.Fatalf("restart %d: store stats changed (U[%d]=%v, want %v) — replay re-merged profiling",
					restart, k, got.U[k], want.U[k])
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverRefusesAfterServing pins the API contract: Recover is a
// construction-time call.
func TestRecoverRefusesAfterServing(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	if err := s.Publish(concTasks(s.m, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(t.TempDir()); err == nil {
		t.Fatal("Recover after Publish must fail")
	}
	if _, err := s.Recover(""); err == nil {
		t.Fatal("Recover with empty dir must fail")
	}
}

// TestRecoverRefusesLegacyCheckpoint: a directory that still holds an older
// version's checkpoint file may have lost the segments it covered, so
// Recover must refuse it by name — with or without a snapshot to boot
// from — and apply nothing.
func TestRecoverRefusesLegacyCheckpoint(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20}
	for _, tc := range []struct {
		name     string
		snapshot bool
	}{{"segments only", false}, {"with snapshot", true}} {
		dir := t.TempDir()
		recs := runLoggedCampaign(t, cfg, dir, 20)
		if tc.snapshot {
			writeStateAt(t, cfg, dir, recs, len(recs))
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("DOCSCKP2"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newSystem(t, cfg)
		_, err := s.Recover(dir)
		if err == nil || !strings.Contains(err.Error(), `"checkpoint"`) {
			t.Fatalf("%s: err = %v, want a refusal naming the checkpoint file", tc.name, err)
		}
		if n := s.Stats().Answers; n != 0 {
			t.Fatalf("%s: refused boot still applied %d answers", tc.name, n)
		}
		s.Close()
	}
}
