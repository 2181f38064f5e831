package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"docs/internal/crashtest"
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

// TestConcurrentServeMatchesSerialReplay: the served traffic from six
// clients at once, reading Results and worker qualities between their
// submits — the data-race canary of the serving stack under -race — is the
// serial replay of its log: ten kill points drawn over it, and the whole
// log, boot to a reference that applied the surviving records one by one
// through the serial path. The final batch inference decodes the tasks'
// ground truth.
func TestConcurrentServeMatchesSerialReplay(t *testing.T) {
	scenario(Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 6, RerunEvery: 50, LeaseTTL: time.Minute}, true).run(t, script{Kills: 10,
		Traffic: func(c *campaigns, _ *mathx.Rand) {
			c.publish("c", 60, 0)
			c.serveAll("c", false)
			s := c.sys["c"]
			res, err := s.Results()
			c.must(err)
			correct := 0
			for i, tk := range s.InferTasks() {
				if res.Truth[i] == tk.Truth {
					correct++
				}
			}
			if acc := float64(correct) / float64(len(res.Truth)); acc < 0.9 {
				t.Errorf("concurrent campaign accuracy %.3f, want >= 0.9", acc)
			}
		}})
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
	serve(t, s, nil)
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
	live, dir := cfg, t.TempDir()
	live.Store = st
	s := bootSystem(t, live, dir)
	if err := s.Publish(concTasks(s.m, 60)); err != nil {
		t.Fatal(err)
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
	serve(t, s, nil)
	close(done)
	wg.Wait()
	if _, err := s.Results(); err != nil {
		t.Fatal(err)
	}
	t.Logf("Results calls during the submits: %v", calls)

	replay := newSystem(t, cfg)
	applyPrefix(t, replay, crashtest.ReadStream(t, dir))
	if _, err := replay.Results(); err != nil {
		t.Fatal(err)
	}
	section := func(s *System) string {
		fp := s.Fingerprint()
		return fp[strings.Index(fp, ";store:"):]
	}
	if got, want := section(s), section(replay); got != want {
		t.Errorf("store after racing Results calls differs from one call at the final prefix:\n%s", diff(got, want))
	}
}
