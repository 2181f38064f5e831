package core

import (
	"fmt"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/wal"
)

// TestBatchSubmitEquivalence is the batched protocol's correctness
// anchor: a campaign driven through SubmitBatch — golden and regular
// answers mixed, invalid items injected into the batches — must leave
// the system bit-identical (Fingerprint) to submitting exactly the
// accepted answers one by one, live AND after WAL recovery of either
// log. The batch entry may only change how answers reach the log, never
// what state they produce.
func TestBatchSubmitEquivalence(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 6, AnswersPerTask: 3, RerunEvery: 20}
	dirA := t.TempDir()
	a := newSystem(t, cfg)
	if _, err := a.Recover(dirA); err != nil {
		t.Fatal(err)
	}
	if err := a.Publish(concTasks(a.m, 40)); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range a.GoldenTasks() {
		goldenSet[id] = true
	}

	type ans struct {
		w            string
		task, choice int
	}
	var accepted []ans
	rejected := 0
	r := mathx.NewRand(99)
	for i := 0; ; i++ {
		w := fmt.Sprintf("w%d", i%9)
		got, err := a.Request(w, 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		items := make([]BatchItem, 0, len(got)+2)
		// Poison pills at deterministic positions: a bad item must be
		// rejected in place without touching its neighbours.
		if i%4 == 0 {
			items = append(items, BatchItem{Worker: "", Task: got[0].ID, Choice: 0})
		}
		for _, tk := range got {
			c := tk.Truth
			if c == model.NoTruth {
				c = 0
			} else if !goldenSet[tk.ID] && r.Float64() >= 0.85 {
				c = 1 - c
			}
			items = append(items, BatchItem{Worker: w, Task: tk.ID, Choice: c})
		}
		if i%3 == 0 {
			items = append(items, BatchItem{Worker: w, Task: 999999, Choice: 0})
		}
		statuses, err := a.SubmitBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		if len(statuses) != len(items) {
			t.Fatalf("batch %d: %d statuses for %d items", i, len(statuses), len(items))
		}
		for j, st := range statuses {
			if st.OK {
				accepted = append(accepted, ans{items[j].Worker, items[j].Task, items[j].Choice})
			} else {
				rejected++
				if st.Err == "" {
					t.Fatalf("batch %d item %d: rejected without a reason", i, j)
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no invalid items were exercised")
	}
	// The batch counters count what the log holds: group records and the
	// answers inside them. A golden answer is a record of its own (it counts
	// as a single submit does) and a call whose items were all rejected logs
	// nothing, so the answer counter is the accepted REGULAR answers — and
	// a recovery of the same log must count the same (below).
	st := a.Stats()
	batches, batchAnswers := st.BatchesTotal, st.BatchAnswersTotal
	if batches == 0 {
		t.Fatal("no batches counted")
	}
	acceptedRegular := int64(0)
	for _, an := range accepted {
		if !goldenSet[an.task] {
			acceptedRegular++
		}
	}
	if acceptedRegular == int64(len(accepted)) {
		t.Fatal("no golden answer went through a batch")
	}
	if batchAnswers != acceptedRegular {
		t.Fatalf("batch answer counter %d, accepted regular answers %d", batchAnswers, acceptedRegular)
	}
	liveA := fingerprint(a)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reference: the identical accepted stream, one Submit per answer.
	dirB := t.TempDir()
	b := newSystem(t, cfg)
	if _, err := b.Recover(dirB); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(concTasks(b.m, 40)); err != nil {
		t.Fatal(err)
	}
	for _, an := range accepted {
		if err := b.Submit(an.w, an.task, an.choice); err != nil {
			t.Fatalf("reference submit (%s, %d, %d): %v", an.w, an.task, an.choice, err)
		}
	}
	if got := fingerprint(b); got != liveA {
		t.Fatalf("batched state differs from one-by-one reference\nbatched:   %.300s\nreference: %.300s", liveA, got)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Both logs — A's KindBatch groups, B's per-answer records — must
	// recover to that same state.
	for name, dir := range map[string]string{"batched": dirA, "single": dirB} {
		rec := newSystem(t, cfg)
		if _, err := rec.Recover(dir); err != nil {
			t.Fatalf("%s recovery: %v", name, err)
		}
		if got := fingerprint(rec); got != liveA {
			t.Fatalf("%s log recovered to a different state", name)
		}
		wantBatches, wantAnswers := batches, batchAnswers
		if name == "single" {
			wantBatches, wantAnswers = 0, 0
		}
		if st := rec.Stats(); st.BatchesTotal != wantBatches || st.BatchAnswersTotal != wantAnswers {
			t.Fatalf("%s log recovered batch counters %d/%d, live %d/%d",
				name, st.BatchesTotal, st.BatchAnswersTotal, wantBatches, wantAnswers)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A's durable stream must actually contain batch groups (the whole
	// point of the protocol: rejected items absent, accepted ones grouped).
	groups := int64(0)
	if _, err := wal.Replay(dirA, func(rec wal.Record) error {
		if rec.Kind == wal.KindBatch {
			groups++
			if _, err := wal.DecodeBatch(rec.Blob); err != nil {
				return fmt.Errorf("undecodable batch record %d: %v", rec.Seq, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if groups == 0 || groups != batches {
		t.Fatalf("batched campaign logged %d KindBatch records, counted %d batches", groups, batches)
	}
}

// runLoggedBatchedCampaign mirrors runLoggedCampaign with every HIT
// submitted through SubmitBatch (invalid items injected and rejected
// along the way), returning the durable record stream — KindBatch groups
// among plain answers (golden submissions split out of their groups).
func runLoggedBatchedCampaign(t *testing.T, cfg Config, dir string, nTasks int) []wal.Record {
	t.Helper()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(concTasks(s.m, nTasks)); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	r := mathx.NewRand(43)
	for i := 0; ; i++ {
		w := fmt.Sprintf("w%d", i%11)
		got, err := s.Request(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		items := make([]BatchItem, 0, len(got)+1)
		for _, tk := range got {
			c := tk.Truth
			if c == model.NoTruth {
				c = 0
			} else if !goldenSet[tk.ID] && r.Float64() >= 0.85 {
				c = 1 - c
			}
			items = append(items, BatchItem{Worker: w, Task: tk.ID, Choice: c})
		}
		if i%5 == 0 {
			items = append(items, BatchItem{Worker: w, Task: -1, Choice: 0})
		}
		statuses, err := s.SubmitBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		for j, st := range statuses {
			if !st.OK && items[j].Task != -1 {
				t.Fatalf("valid item (%s, %d) rejected: %s", items[j].Worker, items[j].Task, st.Err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	return crashtest.ReadStream(t, dir)
}

// TestCrashInjectionBatchedRecoveryExact reruns the crash-injection
// sweep over a campaign whose traffic went through SubmitBatch: each
// group is ONE WAL frame, so a kill point either keeps a whole group or
// drops it entirely — a torn cut inside a batch frame must recover to
// exactly the state before the group, bit for bit. Every kill point that
// lands just before a KindBatch record is additionally torn mid-frame to
// pin the all-or-nothing contract on the batch records themselves.
func TestCrashInjectionBatchedRecoveryExact(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	srcDir := t.TempDir()
	runLoggedBatchedCampaign(t, cfg, srcDir, 60)
	log := crashtest.ReadLog(t, srcDir)
	n := len(log.Records)
	if n < 20 {
		t.Fatalf("campaign produced only %d records", n)
	}
	// Tear into every batch frame: the cut lands mid-group and the whole
	// group must vanish.
	var batches []crashtest.Kill
	for i, rec := range log.Records {
		if rec.Kind == wal.KindBatch {
			batches = append(batches, crashtest.Kill{Surviving: i, Torn: 5})
		}
	}
	if len(batches) == 0 {
		t.Fatal("batched campaign logged no KindBatch records")
	}
	sweepKills(t, cfg, log, crashtest.Kills(mathx.NewRand(17), 40, n, 0, batches...), nil)
}

// TestBatchIsOneWALRecord pins the count the batched protocol exists for:
// a SubmitBatch of N accepted regular answers costs exactly one WAL record
// where N single Submit calls cost N.
func TestBatchIsOneWALRecord(t *testing.T) {
	const n = 16
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	if _, err := s.Recover(t.TempDir()); err != nil {
		t.Fatal(err)
	}
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
	s := newSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 3, RerunEvery: 5})
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
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
	r := newSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 3, RerunEvery: 5})
	if _, err := r.Recover(dir); err != nil {
		t.Fatal(err)
	}
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
