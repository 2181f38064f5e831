package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"docs/internal/crashtest"
	"docs/internal/dataset"
	"docs/internal/dve"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/truth"
)

// Publish is a pipeline: DVE fans out over chunks of the tasks, the packer
// encodes and packs the columns DVE does not touch beside it and the
// vectors after it, and the tasks are installed in one pass.
// Every test here holds it to the serial path it replaced.

// datasetTasks is n fresh tasks cut from the four datasets' texts, choices
// and truths, numbered 0..n-1, with no domain vector: DVE links them all.
func datasetTasks(n int) []*model.Task {
	var src []*model.Task
	for _, ds := range dataset.All(1) {
		src = append(src, ds.Tasks...)
	}
	tasks := make([]*model.Task, n)
	for i := range tasks {
		tk := *src[i%len(src)]
		tk.ID, tk.Domain = i, nil
		tasks[i] = &tk
	}
	return tasks
}

// serialRecord is what the serial path logs for tasks — DVE task after
// task, then the one-pass encoder and packer — computed on copies, so the
// tasks themselves are left for Publish.
func serialRecord(t *testing.T, s *System, tasks []*model.Task) []byte {
	t.Helper()
	copies := make([]*model.Task, len(tasks))
	for i, tk := range tasks {
		c := *tk
		if c.Domain == nil {
			c.Domain = dve.Normalized(dve.FromLinked(s.linker.Link(c.Text), s.m), s.m)
		}
		copies[i] = &c
	}
	return serialPublication(t, copies, s.m)
}

// publishLogged publishes tasks on a fresh logged campaign and returns the
// campaign, still open, and the record its log holds.
func publishLogged(t *testing.T, cfg Config, tasks []*model.Task) (*System, []byte) {
	t.Helper()
	dir := t.TempDir()
	s := bootSystem(t, cfg, dir)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	recs := crashtest.ReadStream(t, dir)
	if len(recs) != 1 {
		t.Fatalf("the log holds %d records after a publish, want 1", len(recs))
	}
	return s, recs[0].Blob
}

// TestPublishRecordMatchesSerialOracle: the record Publish logs is, byte
// for byte, the one the serial path — DVE task by task, then
// encodeBinaryPublication and packPublication — logs for the same tasks:
// over the four datasets; over batches of 1, a chunk less one, a chunk, a
// chunk and one, and 6,000 tasks with a third of them pre-annotated; over
// random-byte texts, which pack, and three of them, which stay DPC1; and,
// through the pipeline Publish
// runs after validation, over TestPropertyPublicationRoundTrip's 200
// seeded sets.
func TestPublishRecordMatchesSerialOracle(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	check := func(name string, cfg Config, tasks []*model.Task, magic string) {
		t.Helper()
		s := newSystem(t, cfg)
		want := serialRecord(t, s, tasks)
		s.Close()
		_, got := publishLogged(t, cfg, tasks)
		if !bytes.HasPrefix(got, []byte(magic)) {
			t.Errorf("%s: logged a record opening %q, want %q", name, got[:4], magic)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Publish logged %d bytes that differ from the serial path's %d", name, len(got), len(want))
		}
	}
	for _, ds := range dataset.All(1) {
		check(ds.Name, cfg, ds.Tasks, deflateMagic)
	}
	for _, n := range []int{1, publishChunk - 1, publishChunk, publishChunk + 1, 6000} {
		tasks := datasetTasks(n)
		for i, tk := range tasks {
			if i%3 == 1 {
				tk.Domain = make(model.DomainVector, 26)
				tk.Domain[i%26] = 0.5
				tk.Domain[(i*7+1)%26] += 0.5
			}
		}
		check(fmt.Sprintf("%d tasks", n), cfg, tasks, deflateMagic)
	}
	fourDomains := cfg
	fourDomains.KB = kb.New(model.MustDomainSet([]string{"a", "b", "c", "d"}))
	check("random text", fourDomains, randomTextTasks(3*publishChunk+5), deflateMagic)
	check("three random texts", fourDomains, randomTextTasks(3), publicationMagic)

	systems := map[int]*System{}
	for _, m := range []int{1, 4, 26} {
		names := make([]string, m)
		for k := range names {
			names[k] = fmt.Sprintf("d%d", k)
		}
		systems[m] = newSystem(t, Config{KB: kb.New(model.MustDomainSet(names))})
		defer systems[m].Close()
	}
	for round, set := range seededPublications() {
		_, record, err := systems[set.m].linkAndPack(batchOf(set.tasks, set.m), true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := record()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := serialPublication(t, set.tasks, set.m); !bytes.Equal(got, want) {
			t.Fatalf("round %d: the pipeline packs %d bytes that differ from the serial path's %d", round, len(got), len(want))
		}
	}
}

// TestPublishIndependentOfGOMAXPROCS: how many cores DVE fans out over is
// invisible. The same batch published at GOMAXPROCS 1 and at 8 leaves the
// same fingerprint (every domain vector's bits), golden set, index epoch and
// logged record, and no task materialised in the truth engine. Run it under
// -race.
func TestPublishIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := Config{GoldenCount: 10, LeaseTTL: time.Minute, RerunEvery: -1}
	var want string
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		s, rec := publishLogged(t, cfg, datasetTasks(20*publishChunk+7))
		runtime.GOMAXPROCS(prev)
		if e := s.inc.Epoch(); e != 0 {
			t.Fatalf("GOMAXPROCS %d: the publish moved the truth engine's epoch to %d, want 0", procs, e)
		}
		got := fmt.Sprintf("%s|%v|%d|%x", s.Fingerprint(), s.GoldenTasks(), s.Stats().IndexEpoch, rec)
		if procs == 1 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS %d: the fingerprint, golden set, index epoch or record differs from GOMAXPROCS 1's", procs)
		}
	}
}

// TestPublishChunkFailure: a chunk whose DVE fails fails the publish with
// the error a serial loop over the tasks would meet first, leaves the
// campaign unpublished and its log empty, and leaves no goroutine behind,
// so a retry with the same tasks races nothing (run it under -race) and
// logs what the serial path logs.
func TestPublishChunkFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := Config{GoldenCount: 5, LeaseTTL: time.Minute, RerunEvery: -1}
	const chunks = 12
	for name, failing := range map[string][]int{
		"first":           {0},
		"middle and last": {chunks / 2, chunks - 1},
		"last":            {chunks - 1},
	} {
		tasks := datasetTasks(chunks*publishChunk - 3)
		s := bootSystem(t, cfg, t.TempDir())
		injected := errors.New("injected DVE failure")
		s.publishFault = func(c int) error {
			for _, f := range failing {
				if c == f {
					return fmt.Errorf("chunk %d: %w", c, injected)
				}
			}
			return nil
		}
		want := serialRecord(t, s, tasks)
		before := runtime.NumGoroutine()
		err := s.Publish(tasks)
		if after := settledGoroutines(before); after > before {
			t.Errorf("%s: %d goroutines before the publish, %d after it returned", name, before, after)
		}
		if !errors.Is(err, injected) || err.Error() != fmt.Sprintf("chunk %d: %v", failing[0], injected) {
			t.Fatalf("%s: Publish returned %v, want chunk %d's failure", name, err, failing[0])
		}
		if s.Published() || s.Stats().WALLastSeq != 0 || s.wal.ReservedSeq() != 0 {
			t.Fatalf("%s: the failed publish left published=%v, WAL seq %d", name, s.Published(), s.Stats().WALLastSeq)
		}
		s.publishFault = nil
		if err := s.Publish(tasks); err != nil {
			t.Fatalf("%s: retry: %v", name, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := crashtest.ReadStream(t, s.walDir)[0].Blob; !bytes.Equal(got, want) {
			t.Errorf("%s: the retry logged a record that differs from the serial path's", name)
		}
	}
}

// settledGoroutines is the goroutine count, given a goroutine that has
// signalled its end a moment to exit: it returns as soon as the count is
// at most want, or after a second.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	return n
}

// TestAllocsInstallPublication: installing n decoded tasks — the last stage
// of a publish and of every wake — allocates a constant the same at 600 and
// at 6,000 tasks: a task enters the truth engine latent, holding nothing of
// its own there, its rest pointer, candidate, truth slot and lease counter
// each come in one allocation for all, and the maps are sized once.
func TestAllocsInstallPublication(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const perTask, constant = 0, 128
	install := func(n int) uint64 {
		s := newSystem(t, Config{GoldenCount: -1, LeaseTTL: time.Minute})
		defer s.Close()
		tasks := indexTasks(n, s.m)
		for i, tk := range tasks { // one vector per distinct encoding, as a publication shares them
			tk.Domain = tasks[i%s.m].Domain
		}
		pub, err := decodeBinaryPublication(mustEncodeBinaryPublication(t, tasks, s.m), s.m)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.installPublication(pub)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	install(10) // the first task of each shape builds the shared rest states
	for _, n := range []int{600, 6000} {
		least := ^uint64(0)
		for rep := 0; rep < 5; rep++ {
			least = min(least, install(n))
		}
		t.Logf("installing %d tasks: %d allocations, %.2f a task", n, least, float64(least)/float64(n))
		if least > perTask*uint64(n)+constant {
			t.Errorf("installing %d tasks allocates %d times, want at most %d a task plus %d", n, least, perTask, constant)
		}
	}
}

// TestInstallBytesPerTask: a published task costs its position. Decoding
// and installing 6,000 tasks — shared vectors, leases armed, nothing
// answered — grows the live heap, past the record's own bytes, by at most
// 48 B a task: the ID column and its sorted permutation, the task table's
// text and choices offsets, the golden flag, and the candidate index's rest
// pointer, truth slot, open flag, lease counter and place in the first
// published generation: 46 B. One ID-keyed map over the tasks more than
// uses up the slack.
func TestInstallBytesPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const n, perTask = 6000, 48
	s := newSystem(t, Config{GoldenCount: -1, LeaseTTL: time.Minute})
	defer s.Close()
	tasks := indexTasks(n, s.m)
	for i, tk := range tasks { // one vector per distinct encoding, as a publication shares them
		tk.Domain = tasks[i%s.m].Domain
	}
	blob := mustEncodeBinaryPublication(t, tasks, s.m)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pub, err := decodeBinaryPublication(blob, s.m)
	if err != nil {
		t.Fatal(err)
	}
	s.installPublication(pub)
	runtime.GC()
	runtime.ReadMemStats(&after)
	got := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("decoding and installing %d tasks grows the live heap by %.1f B a task", n, got)
	if got > perTask {
		t.Errorf("a published task holds %.1f B of live heap, want at most %d", got, perTask)
	}
	runtime.KeepAlive(s)
}

// TestLiveBytesPerPublishedTask: a published task is its row of the task
// table. Following 600 and then 6,000 dataset tasks from the check through
// the install, each further latent task holds at most 64 B of live heap
// beyond its text and choice bytes, which the table's slab holds: its
// share of the slab's other columns, its two offsets, and the 38 B
// TestInstallBytesPerTask counts (≈196 while the core kept a model.Task,
// its choices' headers and a pointer for each). Answering every task once
// then adds, beyond what the truth engine holds for the same rows and
// answers, the answer log's columns: each further answered task holds at
// most 128 B. Per further task, as TestLiveBytesPerAnswer counts: what a
// campaign holds once — its distinct vectors and their rest states, a few
// dozen here — is no task's.
func TestLiveBytesPerPublishedTask(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const small, large, latentMax, answeredMax = 600, 6000, 64, 128
	live := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and what the pools' victim caches held
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	// held publishes n tasks and answers each once, and returns the live
	// heap the campaign holds beyond the tasks' text and choice bytes, then
	// that and what answering added beyond a bare truth engine's state for
	// the same rows and answers.
	held := func(n int) (latent, answered float64) {
		tasks, workers := datasetTasks(n), make([]string, n)
		text := 0
		for i, tk := range tasks {
			text += len(tk.Text)
			for _, c := range tk.Choices {
				text += len(c)
			}
			workers[i] = fmt.Sprintf("w%d", i%60)
		}
		s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
		defer s.Close()
		before := live()
		b, err := CheckTasks(tasks, s.m)
		if err == nil {
			err = s.PublishBatch(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		b = nil
		latent = live() - before - float64(text)

		ci := s.pub.Load().ci
		rows := make([]truth.Row, n)
		for p := range rows {
			rows[p] = ci.row(p)
		}
		engine, slots := truth.NewIncremental(s.m), make([]truth.Slot, n)
		before = live()
		for p, row := range rows {
			engine.Materialise(row, &slots[p])
			if err := engine.SubmitBy(engine.Intern(workers[p]), &slots[p], 0); err != nil {
				t.Fatal(err)
			}
		}
		engineHeld := live() - before
		before = live()
		for p, tk := range tasks {
			if err := s.Submit(workers[p], tk.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		answered = latent + live() - before - engineHeld
		runtime.KeepAlive(tasks)
		runtime.KeepAlive(rows)
		runtime.KeepAlive(engine)
		runtime.KeepAlive(slots)
		return latent, answered
	}
	latentSmall, answeredSmall := held(small)
	latentLarge, answeredLarge := held(large)
	latent, answered := (latentLarge-latentSmall)/(large-small), (answeredLarge-answeredSmall)/(large-small)
	t.Logf("campaigns of %d and %d tasks hold %.0f B and %.0f B beyond the text and choices, %.0f B and %.0f B answered: %.1f B a further latent task, %.1f B a further answered one",
		small, large, latentSmall, latentLarge, answeredSmall, answeredLarge, latent, answered)
	if latent > latentMax || answered > answeredMax {
		t.Errorf("a further latent task holds %.1f B and an answered one %.1f B, want at most %d and %d", latent, answered, latentMax, answeredMax)
	}
}

// TestAllocsRerunIndependentOfUnanswered: a rerun lists the tasks its
// prefix answers and counts the others, so what it allocates follows the
// answered tasks. With 800 answers on distinct tasks, m = 26 and no golden
// task, one rerun over 6,000 published tasks allocates at most 8 B more
// for each of the 5,000 extra unanswered tasks than over 1,000 (≈65 while
// the rerun handed inference every published task).
func TestAllocsRerunIndependentOfUnanswered(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const answers, perTask = 800, 8
	rerunBytes := func(n int) uint64 {
		s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
		defer s.Close()
		tasks := indexTasks(n, s.m)
		for i, tk := range tasks {
			tk.Domain = tasks[i%s.m].Domain
		}
		if err := s.Publish(tasks); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < answers; i++ {
			if err := s.Submit(fmt.Sprintf("w%d", i%40), i, i%2); err != nil {
				t.Fatal(err)
			}
		}
		least := ^uint64(0)
		var before, after runtime.MemStats
		for rep := 0; rep < 3; rep++ {
			runtime.ReadMemStats(&before)
			err := s.rerun()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if m := newSystem(t, Config{GoldenCount: -1}).m; m != 26 {
		t.Fatalf("the default knowledge base has %d domains, want 26", m)
	}
	small, large := rerunBytes(1000), rerunBytes(6000)
	got := (float64(large) - float64(small)) / 5000
	t.Logf("a rerun of %d answers allocates %d B over 1,000 tasks and %d B over 6,000: %.2f B an unanswered task", answers, small, large, got)
	if got > perTask {
		t.Errorf("a rerun allocates %.2f B for each unanswered task, want at most %d", got, perTask)
	}
}

// TestAllocsRerunPerAnswer: a rerun reads the answer log where it lies. Over
// 600 tasks of support 1 and 600 workers, the heap one rerun allocates
// grows by at most 128 B per answer of the prefix (its index, the kernel's
// per-answer arrays and Step-2 weights) — a copy of the log and a rebuilt
// AnswerSet cost over 400.
func TestAllocsRerunPerAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const tasks, workers, perAnswer = 600, 600, 128
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	defer s.Close()
	if err := s.Publish(indexTasks(tasks, s.m)); err != nil {
		t.Fatal(err)
	}
	submitted := 0
	rerunBytes := func(answers int) uint64 {
		for ; submitted < answers; submitted++ {
			w := submitted % workers // worker w's j'th answer is task j+7w: no repeats
			if err := s.Submit(fmt.Sprintf("w%d", w), (submitted/workers+7*w)%tasks, submitted%2); err != nil {
				t.Fatal(err)
			}
		}
		least := ^uint64(0)
		var before, after runtime.MemStats
		for rep := 0; rep < 3; rep++ {
			runtime.ReadMemStats(&before)
			err := s.rerun()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := rerunBytes(2400), rerunBytes(9600)
	got := float64(large-small) / (9600 - 2400)
	t.Logf("a rerun allocates %d B at 2,400 answers and %d B at 9,600: %.1f B per answer", small, large, got)
	if got > perAnswer {
		t.Errorf("a rerun allocates %.1f B per answer of the prefix, want at most %d", got, perAnswer)
	}
}

// TestAllocsGoldenRerunPerAnswer is TestAllocsRerunPerAnswer on a campaign
// with golden tasks: the golden answers follow the answer log in the
// rerun's one index as a tail over the same columns, so a golden rerun
// allocates per regular answer what a plain one does, ≈45 B, pinned at 64:
// no copy of the log with the golden answers appended, no second index
// over it (≈96 with both). 60 of the 600 workers pass a 10-task gauntlet
// first.
func TestAllocsGoldenRerunPerAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const golden, tasks, workers, perAnswer = 10, 600, 600, 64
	s := newSystem(t, Config{GoldenCount: golden, RerunEvery: -1})
	defer s.Close()
	all := indexTasks(golden+tasks, s.m)
	for _, tk := range all[:golden] {
		tk.Truth = 0
	}
	if err := s.Publish(all); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers/10; w++ {
		for g := 0; g < golden; g++ {
			if err := s.Submit(fmt.Sprintf("w%d", w), g, w%2); err != nil {
				t.Fatal(err)
			}
		}
	}
	submitted := 0
	rerunBytes := func(answers int) uint64 {
		for ; submitted < answers; submitted++ {
			w := submitted % workers // worker w's j'th answer is task j+7w: no repeats
			if err := s.Submit(fmt.Sprintf("w%d", w), golden+(submitted/workers+7*w)%tasks, submitted%2); err != nil {
				t.Fatal(err)
			}
		}
		least := ^uint64(0)
		var before, after runtime.MemStats
		for rep := 0; rep < 3; rep++ {
			runtime.ReadMemStats(&before)
			err := s.rerun()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := rerunBytes(2400), rerunBytes(9600)
	got := float64(large-small) / (9600 - 2400)
	t.Logf("a golden rerun allocates %d B at 2,400 answers and %d B at 9,600: %.1f B per answer", small, large, got)
	if got > perAnswer {
		t.Errorf("a golden rerun allocates %.1f B per answer of the prefix, want at most %d", got, perAnswer)
	}
}

// TestLiveBytesPerAnswer: a regular answer is held once, as 12 B of answer
// log columns and an 8-B entry in its task's V(i). Over 600 tasks and 600
// workers, answers arriving in batches of 128 — each naming its worker by a
// fresh string, as a decoded request body does — grow the live heap by
// ≈26 B an answer between 600 and 12,600 answers, growth slack included,
// pinned at 40: a per-worker answered set (≈20 B an answer) more than uses
// up the slack. ≈124 while the log, V(i) and that set each held the
// answer, the first two as a model.Answer and its string.
func TestLiveBytesPerAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	const tasks, workers, batch, perAnswer = 600, 600, 128, 40
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	defer s.Close()
	if err := s.Publish(indexTasks(tasks, s.m)); err != nil {
		t.Fatal(err)
	}
	submitted := 0
	liveAt := func(answers int) uint64 {
		for submitted < answers {
			items := make([]BatchItem, 0, batch)
			for ; submitted < answers && len(items) < batch; submitted++ {
				w := submitted % workers // worker w's j'th answer is task j+7w: no repeats
				items = append(items, BatchItem{Worker: fmt.Sprintf("w%d", w), Task: (submitted/workers + 7*w) % tasks, Choice: submitted % 2})
			}
			statuses, err := s.SubmitBatch(items)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range statuses {
				if !st.OK {
					t.Fatalf("item %d: %s", i, st.Err)
				}
			}
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	small := liveAt(600)
	large := liveAt(12600)
	got := (float64(large) - float64(small)) / (12600 - 600)
	t.Logf("the live heap grows by %.1f B an answer between 600 and 12,600 answers", got)
	if got > perAnswer {
		t.Errorf("an answer holds %.1f B of live heap, want at most %d", got, perAnswer)
	}
	runtime.KeepAlive(s)
}

// allocsUnder returns what f allocates under fn, a function's full name:
// the objects and bytes the memory profile, recording every allocation
// while f runs, holds under a stack through fn or a closure of it. So what
// other goroutines allocate meanwhile — a collection, a test's leftover
// writer — is not counted; what the writer runs of fn's is.
func allocsUnder(fn string, f func()) (allocs, bytes int64) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	under := func() (allocs, bytes int64) {
		runtime.GC() // the profile holds the allocations before the last collection
		var records []runtime.MemProfileRecord
		for n, ok := runtime.MemProfile(nil, true); !ok; {
			records = make([]runtime.MemProfileRecord, n+64)
			n, ok = runtime.MemProfile(records, true)
			records = records[:min(n, len(records))]
		}
		for _, r := range records {
			for frames, more := runtime.CallersFrames(r.Stack()), true; more; {
				var frame runtime.Frame
				if frame, more = frames.Next(); frame.Function == fn || strings.HasPrefix(frame.Function, fn+".") {
					allocs, bytes = allocs+r.AllocObjects, bytes+r.AllocBytes
					break
				}
			}
		}
		return allocs, bytes
	}
	allocs, bytes = under()
	f()
	after, afterBytes := under()
	return after - allocs, afterBytes - bytes
}

// TestAllocsRequestIndependentOfAnswered: a request reads T(w) off each
// candidate's V(i) and copies nothing of it, so what a Request allocates
// does not follow what the worker answered: a worker with 500 answers costs
// the same allocations and bytes per Request as one with 5 (a copy of her
// answered set cost one map sized by it), and no more than requestAllocs
// and requestBytes, the reading since a Request reads the worker's quality
// vector into its reused space (6 and 720 B while it cloned her whole
// statistics, 11 and 1,200 B while it minted a model.Task a served task and
// built its maps).
// Nor does it follow the leases they hold: the lease exclusion reads their
// held positions into the request's reused space, where a map was built
// (one more allocation). There both requests serve nothing — every task is
// answered by them or leased to them — so the grant, which books each new
// lease, is no part of the comparison. It counts what Request's own calls
// allocate (allocsUnder), so no other goroutine's allocation moves it.
func TestAllocsRequestIndependentOfAnswered(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const tasks, requestAllocs, requestBytes = 600, 3, 256
	// On one P, with no collection but a count's, so that a request finds
	// the space the one before it pooled. A count's collection empties the
	// pool, so each count pays the refill once, after a warm request:
	// 2·runs requests cost runs requests' allocations more than runs do.
	perRequest := func(s *System, worker string, want int) (allocs, bytes int64) {
		const runs = 50
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		request := func(n int) func() {
			return func() {
				for i := 0; i < n; i++ {
					if out, err := s.Request(worker, 0); err != nil || len(out) != want {
						t.Fatalf("Request(%s): %d tasks, %v", worker, len(out), err)
					}
				}
			}
		}
		count := func(n int) (allocs, bytes int64) {
			request(1)()
			return allocsUnder("docs/internal/core.(*System).Request", request(n))
		}
		once, onceBytes := count(runs)
		twice, twiceBytes := count(2 * runs)
		return (twice - once) / runs, (twiceBytes - onceBytes) / runs
	}
	submit := func(s *System, worker string, ps ...int) {
		for _, p := range ps {
			if err := s.Submit(worker, p, p%2); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := func(n int) []int { // the first n task IDs, spread as (i*7)%tasks
		ps := make([]int, n)
		for i := range ps {
			ps[i] = (i * 7) % tasks
		}
		return ps
	}

	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1, HITSize: 5})
	defer s.Close()
	if err := s.Publish(indexTasks(tasks, s.m)); err != nil {
		t.Fatal(err)
	}
	submit(s, "few", first(5)...)
	submit(s, "many", first(500)...)
	fewAllocs, fewBytes := perRequest(s, "few", 5)
	manyAllocs, manyBytes := perRequest(s, "many", 5)
	t.Logf("a Request allocates %d times, %d B, for a worker with 5 answers and %d times, %d B, with 500", fewAllocs, fewBytes, manyAllocs, manyBytes)
	if fewAllocs != manyAllocs || fewBytes != manyBytes {
		t.Errorf("a Request allocates %d times, %d B, for a worker with 500 answers, want the %d, %d B of one with 5", manyAllocs, manyBytes, fewAllocs, fewBytes)
	}
	if fewAllocs > requestAllocs || fewBytes > requestBytes {
		t.Errorf("a Request allocates %d times, %d B, want at most %d, %d B", fewAllocs, fewBytes, requestAllocs, requestBytes)
	}

	leased := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1, HITSize: 5, LeaseTTL: time.Hour, Clock: newFakeClock().Now})
	defer leased.Close()
	if err := leased.Publish(indexTasks(tasks, leased.m)); err != nil {
		t.Fatal(err)
	}
	all := make([]int, tasks)
	for p := range all {
		all[p] = p
	}
	submit(leased, "none", all...)
	submit(leased, "holder", all[:tasks-5]...)
	if out, err := leased.Request("holder", 0); err != nil || len(out) != 5 {
		t.Fatalf("the holder's first Request served %d tasks, %v; want their last 5", len(out), err)
	}
	noneAllocs, noneBytes := perRequest(leased, "none", 0)
	heldAllocs, heldBytes := perRequest(leased, "holder", 0)
	t.Logf("a Request allocates %d times, %d B, for a worker holding no lease and %d times, %d B, holding 5", noneAllocs, noneBytes, heldAllocs, heldBytes)
	if heldAllocs != noneAllocs || heldBytes != noneBytes {
		t.Errorf("a Request allocates %d times, %d B, for a worker holding 5 leases, want the %d, %d B of one holding none", heldAllocs, heldBytes, noneAllocs, noneBytes)
	}
}
