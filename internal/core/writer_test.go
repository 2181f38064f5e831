package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/store"
)

// BenchmarkConcurrentSubmitRequest: GOMAXPROCS goroutines share one
// WAL-armed campaign of 600 tasks, each a worker who requests a HIT of five
// and answers its first task, taking a fresh worker name once the pool
// serves them nothing. Reruns are off, so what is timed is serving alone.
// Run it at -cpu 1,2 to see what one campaign's serving costs when its
// mutations queue for one writer.
func BenchmarkConcurrentSubmitRequest(b *testing.B) {
	k := kb.MustDefault()
	st, err := store.Open("", k.Domains().Size())
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{KB: k, Store: st, ProfileScope: "bench", GoldenCount: -1, HITSize: 5, RerunEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Recover(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	if err := s.Publish(indexTasks(600, s.m)); err != nil {
		b.Fatal(err)
	}
	var workers atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := fmt.Sprintf("w%d", workers.Add(1))
		for pb.Next() {
			served, err := s.Request(w, 5)
			if err != nil {
				b.Error(err)
				return
			}
			if len(served) == 0 {
				w = fmt.Sprintf("w%d", workers.Add(1))
				continue
			}
			if err := s.Submit(w, served[0].ID, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// servedTasks60 is the task set the served traffic runs over: 60 tasks, the
// first six golden-eligible.
func servedTasks60(m int) []*model.Task {
	tasks := indexTasks(60, m)
	for _, tk := range tasks[:6] {
		tk.Truth = 0
	}
	return tasks
}

// servedCampaign publishes servedTasks60 on a WAL-armed system over a store
// that holds the profiles of workers w0–w3 from another campaign, and
// serves it, beside running beside when it is set.
func servedCampaign(t *testing.T, cfg Config, dir string, beside func(*System)) *System {
	t.Helper()
	s := bootSystem(t, cfg, dir)
	seedElsewhere(t, s)
	if err := s.Publish(servedTasks60(s.m)); err != nil {
		t.Fatal(err)
	}
	serve(t, s, beside)
	return s
}

// serve drives s from six goroutines, beside which, when it is set, beside
// runs too: each goroutine requests HITs for workers w0–w8 (so two
// goroutines may serve one worker at once) and answers them — the truth,
// one answer in eight aside, and either choice for a task without one —
// one goroutine in batches, then reads each task's Result and the worker's
// quality, the lock-free readers of the writer's state. A rejected answer
// (a racing duplicate) is part of the traffic; a durability failure fails
// the test.
func serve(t *testing.T, s *System, beside func(*System)) {
	t.Helper()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	if beside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					beside(s)
				}
			}
		}()
	}
	var clients sync.WaitGroup
	for g := 0; g < 6; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			for round := 0; round < 20; round++ {
				w := fmt.Sprintf("w%d", (g*3+round)%9)
				served, err := s.Request(w, 4)
				if err != nil {
					t.Error(err)
					return
				}
				items := make([]BatchItem, len(served))
				for i, tk := range served {
					items[i] = BatchItem{Worker: w, Task: tk.ID, Choice: (round + tk.ID) % 2}
					if tk.Truth >= 0 && (round+tk.ID)%8 != 0 {
						items[i].Choice = tk.Truth
					}
				}
				if g == 0 {
					_, err = s.SubmitBatch(items)
				}
				for i := 0; g != 0 && i < len(items) && !errors.Is(err, ErrDurability); i++ {
					err = s.Submit(items[i].Worker, items[i].Task, items[i].Choice)
				}
				if errors.Is(err, ErrDurability) {
					t.Error(err)
					return
				}
				for _, it := range items {
					s.Result(it.Task)
				}
				s.WorkerQuality(w)
			}
		}(g)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
}

// served is the served traffic as a scenario: servedTasks60 served by six
// clients at once, with Results, Stats and Fingerprint read beside them
// when readers is set. The driver boots the log and holds the boot to the
// live print — Fingerprint and batch counters — and served returns the live
// campaign's Stats.
func served(t *testing.T, cfg Config, readers bool) Stats {
	t.Helper()
	c := scenario(cfg, true)
	c.tasks = func(m, _, _ int) []*model.Task { return servedTasks60(m) }
	live := c.run(t, script{Traffic: func(c *campaigns, _ *mathx.Rand) {
		c.publish("c", 0, 0)
		c.serveAll("c", readers)
	}})
	st := live.stats["c"]
	if st.Answers < 2*int64(cfg.RerunEvery) || st.RerunsCompleted == 0 || st.BatchesTotal == 0 {
		t.Fatalf("the traffic gave %d answers, %d reruns and %d batches: too little to hold replay to", st.Answers, st.RerunsCompleted, st.BatchesTotal)
	}
	return st
}

// TestLiveIsItsLogReplayed: a campaign served concurrently — requests under
// leases, single and batched submits, golden gauntlets, store seeds and
// reruns on the writer — is, bit for bit, the state a boot of its log
// reaches: the writer applied every mutation in the order the log holds.
func TestLiveIsItsLogReplayed(t *testing.T) {
	served(t, Config{GoldenCount: 3, HITSize: 4, AnswersPerTask: 4, RerunEvery: 15, LeaseTTL: time.Minute}, false)
}

// TestServingStressRecovers: the same traffic with Results, Stats and
// Fingerprint reading the campaign beside it; its log then boots to the
// fingerprint, answers and batch counters the live campaign held — the
// default configuration serves its log's replay.
func TestServingStressRecovers(t *testing.T) {
	served(t, Config{GoldenCount: 3, HITSize: 4, AnswersPerTask: 4, RerunEvery: 10, LeaseTTL: time.Minute}, true)
}

// TestSnapshotPassMatchesReplica hibernates a campaign after the stress
// traffic: the snapshot its pass exports from the live engine is, byte for
// byte, the one a scratch replica booted from the same log exports
// (snapshotReplica, the pass's oracle). A boot from that snapshot then
// serves more traffic and hibernates again, and the second pass matches
// its replica too.
func TestSnapshotPassMatchesReplica(t *testing.T) {
	cfg := Config{GoldenCount: 3, HITSize: 4, AnswersPerTask: 4, RerunEvery: 15, LeaseTTL: time.Minute}
	dir := t.TempDir()
	s := servedCampaign(t, cfg, dir, nil)
	cfg.Store = s.store
	for round := 0; round < 2; round++ {
		oracle, err := snapshotReplica(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := snapshot.Encode(oracle)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Hibernate(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapshot.FileName))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the pass wrote %d B, the replica's export encodes to %d B, and they differ", round, len(got), len(want))
		}
		if round == 1 {
			break
		}
		// The traffic may have met every task's redundancy: the woken
		// campaign lifts the cap for three new workers, who pass the
		// gauntlet and answer eight regular tasks each.
		cfg.AnswersPerTask = 0
		s = newSystem(t, cfg)
		info, err := s.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !info.SnapshotUsed {
			t.Fatalf("the wake did not install the pass's snapshot (rejected: %q)", info.SnapshotRejected)
		}
		before := s.Stats().Answers
		for w := 0; w < 3; w++ {
			worker := fmt.Sprintf("v%d", w)
			for hit := 0; hit < 3; hit++ {
				served, err := s.Request(worker, 4)
				if err != nil {
					t.Fatal(err)
				}
				for _, tk := range served {
					if err := s.Submit(worker, tk.ID, max(tk.Truth, tk.ID%2)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if got := s.Stats().Answers - before; got != 24 {
			t.Fatalf("the woken campaign took %d regular answers, want 24", got)
		}
	}
}
