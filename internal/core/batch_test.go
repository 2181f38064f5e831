package core

import (
	"fmt"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/mathx"
	"docs/internal/wal"
)

// TestBatchSubmitEquivalence is the batched protocol's correctness
// anchor: a campaign driven through SubmitBatch — golden and regular
// answers mixed, a refused item in every batch — leaves the system
// bit-identical to submitting exactly the accepted answers one by one, and
// a boot of either log reaches the live state, batch counters included.
// The batch entry may only change how answers reach the log, never what
// state they produce.
func TestBatchSubmitEquivalence(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 6, AnswersPerTask: 3, RerunEvery: 20}
	a := scenario(cfg, false).run(t, script{Seed: 99, Traffic: func(c *campaigns, r *mathx.Rand) {
		c.publish("c", 40, 0)
		visits(r, c.batchVisit, "c", 9, 6, 0.15)
	}})
	b := scenario(cfg, false).run(t, script{Traffic: func(c *campaigns, _ *mathx.Rand) {
		c.publish("c", 40, 0)
		c.submit("c", a.accepted)
	}})
	// The batch counters count what the log holds: group records and the
	// answers inside them. A golden answer is a record of its own (it counts
	// as a single submit does), so the answer counter is the accepted
	// REGULAR answers.
	st, regular := a.stats["c"], int64(0)
	for _, an := range a.accepted {
		if !a.golden["c"][an.Task] {
			regular++
		}
	}
	if st.BatchesTotal == 0 || regular == int64(len(a.accepted)) || st.BatchAnswersTotal != regular {
		t.Fatalf("%d batches holding %d answers; %d of %d accepted answers regular: want batches, golden answers among them, and every regular one counted",
			st.BatchesTotal, st.BatchAnswersTotal, regular, len(a.accepted))
	}
	if got, want := fingerprintOf(b.prints["campaigns/c"]), fingerprintOf(a.prints["campaigns/c"]); got != want {
		t.Fatalf("the batched state differs from its answers one by one\n%s", diff(got, want))
	}
}

// TestCrashInjectionBatchedRecoveryExact is the kill-point sweep over a
// campaign whose every HIT went through SubmitBatch, a refused item in
// each: a group is ONE WAL frame, so a kill keeps a whole group or none of
// it, and a cut torn 5 bytes into every batch frame boots to the state
// before the group, bit for bit.
func TestCrashInjectionBatchedRecoveryExact(t *testing.T) {
	sweep(t, Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20}, func(c *campaigns, r *mathx.Rand) {
		c.publish("c", 60, 0)
		visits(r, c.batchVisit, "c", 11, 4, 0.15)
	}, 40, func(recs []wal.Record) (batches []crashtest.Kill) {
		for i, rec := range recs {
			if rec.Kind == wal.KindBatch {
				batches = append(batches, crashtest.Kill{Surviving: i, Torn: 5})
			}
		}
		if len(batches) == 0 {
			t.Fatal("the batched campaign logged no KindBatch records")
		}
		return batches
	})
}

// TestBatchIsOneWALRecord pins the count the batched protocol exists for:
// a SubmitBatch of N accepted regular answers costs exactly one WAL record
// where N single Submit calls cost N.
func TestBatchIsOneWALRecord(t *testing.T) {
	const n = 16
	s := bootSystem(t, Config{GoldenCount: -1, RerunEvery: -1}, t.TempDir())
	defer s.Close()
	if err := s.Publish(concTasks(s.m, n)); err != nil {
		t.Fatal(err)
	}

	before := s.Stats().WALLastSeq
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Worker: "batcher", Task: i, Choice: 0}
	}
	statuses, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if !st.OK {
			t.Fatalf("item %d rejected: %s", i, st.Err)
		}
	}
	if got := s.Stats().WALLastSeq - before; got != 1 {
		t.Fatalf("SubmitBatch of %d answers advanced the WAL by %d records, want 1", n, got)
	}

	before = s.Stats().WALLastSeq
	for i := 0; i < n; i++ {
		if err := s.Submit("single", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().WALLastSeq - before; got != n {
		t.Fatalf("%d Submit calls advanced the WAL by %d records, want %d", n, got, n)
	}
}

// TestAnswerCheckedOnce counts the checks an answer takes: a live one is
// checked once, as the writer logs it, and applies with what that check
// found; a replayed one is checked once, as it applies.
func TestAnswerCheckedOnce(t *testing.T) {
	dir := t.TempDir()
	s := bootSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 3, RerunEvery: 5}, dir)
	if err := s.Publish(concTasks(s.m, 12)); err != nil {
		t.Fatal(err)
	}
	checks := func(s *System) (n int) {
		s.read(func() { n = s.checks })
		return n
	}
	if err := s.Submit("w0", 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := checks(s); got != 1 {
		t.Fatalf("one live answer took %d checks, want 1", got)
	}
	items := []BatchItem{{"w1", 0, 1}, {"w1", 1, 0}, {"w1", 1, 1}, {"w2", 2, 0}}
	statuses, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if statuses[2].OK {
		t.Fatal("a batch repeating a worker's task accepted the repeat")
	}
	if got := checks(s); got != 1+len(items) {
		t.Fatalf("one answer and a %d-item batch took %d checks, want %d", len(items), got, 1+len(items))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := bootSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 3, RerunEvery: 5}, dir)
	if got, answers := checks(r), r.Stats().Answers; answers != 4 || got != 4 {
		t.Fatalf("replaying %d answers took %d checks, want 4 and 4", answers, got)
	}
}

// TestBatchHoldsCost pins what a batch's duplicate check costs: one
// lookup an item, so a 1,024-item batch makes 1,024 of them, where a scan
// of the group compared each item against every one before it (523,776
// comparisons for distinct items).
func TestBatchHoldsCost(t *testing.T) {
	const n = 1024
	g := batchGroup{held: make(map[BatchItem]struct{})}
	for i := range n {
		it := BatchItem{Worker: fmt.Sprintf("w%d", i%32), Task: i / 32, Choice: 0}
		if g.holds(it.Worker, it.Task) {
			t.Fatalf("item %d: the group holds %+v before it is added", i, it)
		}
		g.add(it, it.Task, i)
	}
	if !g.holds("w5", 7) || g.holds("w5", n) {
		t.Fatal("the group's set does not hold exactly what was added")
	}
	if g.probes > 10*n {
		t.Fatalf("a %d-item batch made %d comparisons, want at most %d", n, g.probes, 10*n)
	}
}

// TestBatchRunsOneRerun: a batch record whose answers pass several rerun
// boundaries runs one rerun, at the last of them — the reruns before it
// would be overwritten before anything could observe them — and leaves the
// state of the same answers submitted one by one, which rerun at every
// boundary; the driver holds a boot of either log to its live state.
func TestBatchRunsOneRerun(t *testing.T) {
	const z = 5
	var items []BatchItem
	for k := 0; k < 4*z; k++ { // after z-2 single answers: boundaries z, 2z, 3z and 4z
		items = append(items, BatchItem{Worker: fmt.Sprintf("w%d", k/7), Task: k % 7, Choice: k % 2})
	}
	run := func(answer func(c *campaigns, name string, items []BatchItem), reruns int64) string {
		live := scenario(Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 3, RerunEvery: z}, false).run(t, script{
			Traffic: func(c *campaigns, _ *mathx.Rand) {
				c.publish("c", 12, 0)
				c.submit("c", items[:z-2])
				answer(c, "c", items[z-2:])
			}})
		if got := live.stats["c"].RerunsCompleted; got != reruns {
			t.Errorf("a campaign answering %d items past %d singles ran %d reruns, want %d", len(items)-z+2, z-2, got, reruns)
		}
		return fingerprintOf(live.prints["campaigns/c"])
	}
	if batched, single := run((*campaigns).batch, 1), run((*campaigns).submit, 4); batched != single {
		t.Fatalf("the batch differs from its answers one by one\n%s", diff(batched, single))
	}
}
