package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/store"
)

// concTasks builds nTasks two-choice tasks with precomputed one-hot domain
// vectors (skipping the DVE pipeline) and known ground truth i%2 for
// accuracy checks.
func concTasks(m, nTasks int) []*model.Task {
	tasks := make([]*model.Task, nTasks)
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[i%m] = 1
		tasks[i] = &model.Task{
			ID: i, Text: fmt.Sprintf("task %d", i), Choices: []string{"a", "b"},
			Domain: dom, Truth: i % 2, TrueDomain: model.NoTruth,
		}
	}
	return tasks
}

// hammer drives the system with nG goroutines of simulated workers until
// the campaign saturates (every task at its redundancy cap). Each worker
// first clears the golden gauntlet with perfect answers (when goldenSet is
// non-empty), then answers one regular batch correctly with probability
// pCorrect before the goroutine moves to its next worker.
func hammer(t *testing.T, s *System, nG int, pCorrect float64, goldenSet map[int]bool) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, nG)
	for g := 0; g < nG; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := mathx.NewRand(uint64(1000 + g))
			for i := 0; ; i++ {
				w := fmt.Sprintf("w%d-%d", g, i)
				for done := false; !done; {
					got, err := s.Request(w, 4)
					if err != nil {
						errs <- err
						return
					}
					if len(got) == 0 {
						return // saturated
					}
					for _, tk := range got {
						c := tk.Truth
						if c == model.NoTruth {
							c = 0
						} else if !goldenSet[tk.ID] && r.Float64() >= pCorrect {
							c = 1 - c
						}
						if err := s.Submit(w, tk.ID, c); err != nil {
							errs <- err
							return
						}
						// Exercise the concurrent read paths.
						s.Result(tk.ID)
					}
					// A batch is homogeneous: golden while unprofiled,
					// regular after. One regular batch, then a new worker.
					done = !goldenSet[got[0].ID]
				}
				s.WorkerQuality(w)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentServeMatchesSerialReplay hammers Request/Submit/Result from
// many goroutines, then replays the recorded answer stream into a fresh
// system serially and checks the final batch inference agrees task by task.
// Golden profiling is on so that Results' EM initialization comes from the
// long-run store — a pure function of each worker's own golden answers —
// making the concurrent system and the serial replay exactly comparable.
// Run with -race: this test is the data-race canary for the whole serving
// stack.
func TestConcurrentServeMatchesSerialReplay(t *testing.T) {
	cfg := Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 6, RerunEvery: 50}
	s := newSystem(t, cfg)
	tasks := concTasks(s.m, 150)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	hammer(t, s, 8, 0.9, goldenSet)

	stream := s.Answers().All()
	if len(stream) == 0 {
		t.Fatal("no answers collected")
	}
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}

	// Serial replay of the exact same streams — golden gauntlets first
	// (worker order does not matter: profiling is per worker), then the
	// regular answers in recorded order. The replayed tasks are fresh
	// copies so the two systems share nothing.
	replay := newSystem(t, cfg)
	if err := replay.Publish(concTasks(replay.m, 150)); err != nil {
		t.Fatal(err)
	}
	for _, a := range goldenAnswers(s) {
		if err := replay.Submit(a.Worker, a.Task, a.Choice); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range stream {
		if err := replay.Submit(a.Worker, a.Task, a.Choice); err != nil {
			t.Fatal(err)
		}
	}
	want, err := replay.Results()
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Truth) != len(want.Truth) {
		t.Fatalf("result sizes differ: %d vs %d", len(res.Truth), len(want.Truth))
	}
	diff := 0
	for i := range res.Truth {
		if res.Truth[i] != want.Truth[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("%d/%d inferred truths differ from serial replay", diff, len(res.Truth))
	}
	// Both must decode the strong ground-truth signal.
	inferTasks := s.InferTasks()
	correct := 0
	for i, tk := range inferTasks {
		if res.Truth[i] == tk.Truth {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(inferTasks)); acc < 0.9 {
		t.Errorf("concurrent campaign accuracy %.3f, want >= 0.9", acc)
	}
}

// TestConcurrentRerun runs the periodic re-inference on the writer under
// load: every z-th answer's submit reruns, no rerun fails, and every
// published snapshot stays a valid distribution.
func TestConcurrentRerun(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 6, RerunEvery: 25})
	defer s.Close()
	tasks := concTasks(s.m, 120)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	hammer(t, s, 8, 0.9, nil)
	st := s.Stats()
	if want := st.Answers / 25; st.RerunsCompleted != want || want == 0 {
		t.Errorf("%d batch reruns completed over %d answers, want %d", st.RerunsCompleted, st.Answers, want)
	}
	if st.RerunsFailed != 0 {
		t.Errorf("%d batch reruns failed", st.RerunsFailed)
	}
	if st.SnapshotEpoch == 0 {
		t.Error("snapshot epoch never advanced")
	}
	for _, tk := range tasks {
		_, conf := s.Result(tk.ID)
		if err := mathx.CheckDistribution(conf, 1e-9); err != nil {
			t.Errorf("task %d confidence: %v", tk.ID, err)
		}
	}
}

// TestConcurrentGoldenProfiling makes many goroutines push distinct new
// workers through the golden-task gauntlet at once; profiling and the
// golden/regular handoff must be race-free and every profiled worker must
// then receive only regular tasks.
func TestConcurrentGoldenProfiling(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: 6, HITSize: 3, AnswersPerTask: 8, RerunEvery: -1})
	tasks := concTasks(s.m, 80)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	if len(goldenSet) != 6 {
		t.Fatalf("selected %d golden tasks, want 6", len(goldenSet))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				w := fmt.Sprintf("gw%d-%d", g, i)
				// Complete the golden gauntlet (perfect answers).
				for served := 0; served < len(goldenSet); {
					got, err := s.Request(w, 3)
					if err != nil {
						errs <- err
						return
					}
					for _, tk := range got {
						if !goldenSet[tk.ID] {
							errs <- fmt.Errorf("unprofiled worker %s served non-golden task %d", w, tk.ID)
							return
						}
						if err := s.Submit(w, tk.ID, tk.Truth); err != nil {
							errs <- err
							return
						}
						served++
					}
				}
				// Profiled now: next batch must be regular tasks.
				got, err := s.Request(w, 3)
				if err != nil {
					errs <- err
					return
				}
				for _, tk := range got {
					if goldenSet[tk.ID] {
						errs <- fmt.Errorf("profiled worker %s served golden task %d", w, tk.ID)
						return
					}
					if err := s.Submit(w, tk.ID, tk.Truth); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := s.Results(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentResultsLandInSnapshotOrder: Results calls racing each other
// and the submits they infer over hold one lock from the answer snapshot to
// the last store write, so sessions land in snapshot order under one scope,
// and after one last call the store holds exactly what a single call at the
// final prefix leaves in a serial replay's store. Run with -race and -count.
func TestConcurrentResultsLandInSnapshotOrder(t *testing.T) {
	cfg := Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 4, RerunEvery: 40}
	st, err := store.Open(filepath.Join(t.TempDir(), "store"), kb.MustDefault().Domains().Size())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	live := cfg
	live.Store = st
	s := newSystem(t, live)
	if err := s.Publish(concTasks(s.m, 60)); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	calls := make([]int, 3)
	for g := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := s.Results(); err != nil {
					t.Error(err)
					return
				}
				calls[g]++
			}
		}()
	}
	hammer(t, s, 4, 0.8, goldenSet)
	close(done)
	wg.Wait()
	if _, err := s.Results(); err != nil {
		t.Fatal(err)
	}
	t.Logf("Results calls during the submits: %v", calls)

	replay := newSystem(t, cfg)
	if err := replay.Publish(concTasks(replay.m, 60)); err != nil {
		t.Fatal(err)
	}
	for _, a := range goldenAnswers(s) {
		if err := replay.Submit(a.Worker, a.Task, a.Choice); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range s.Answers().All() {
		if err := replay.Submit(a.Worker, a.Task, a.Choice); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := replay.Results(); err != nil {
		t.Fatal(err)
	}
	section := func(s *System) string {
		fp := s.Fingerprint()
		return fp[strings.Index(fp, ";store:"):]
	}
	if got, want := section(s), section(replay); got != want {
		t.Errorf("store after racing Results calls differs from one call at the final prefix:\n%s", DiffFingerprints(got, want, 8))
	}
}

// goldenAnswers returns every worker's golden answers as a rerun reads
// them: in worker-name order, each worker's in the order they gave them.
func goldenAnswers(s *System) []model.Answer {
	c := s.pub.Load()
	var tail model.Columns
	s.read(func() { tail, _ = s.goldenTail(c.goldenList) })
	names := s.inc.Names()
	out := make([]model.Answer, tail.Len())
	for i := range out {
		out[i] = model.Answer{Worker: names[tail.Worker[i]], Task: c.ids[tail.Task[i]], Choice: int(tail.Choice[i])}
	}
	return out
}
