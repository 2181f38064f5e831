package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"docs/internal/crowd"
	"docs/internal/mathx"
)

// Adversarial stress suite: the serving core's equivalence and durability
// contracts must hold under pathological answer distributions — spammers,
// sleepers, colluding cliques and drifting workers — not just the honest
// simulator. Three angles:
//
//  1. the indexed assignment path stays bit-identical to the scan oracle
//     when the traffic is adversarial;
//  2. a colluding clique hammering a tiny campaign concurrently can never
//     push a task past the documented a+l ≥ R assignment-stop bound;
//  3. the crash-injection kill-point sweep recovers bit-identically from a
//     spammer-heavy campaign's WAL.

// adversarial is the crowd of the adversarial traces: ~45 % of the
// workers spammers, sleepers or colluders, and everyone drifting.
var adversarial = crowd.Adversarial{SpammerFraction: 0.25, SleeperFraction: 0.125, Cliques: 1, CliqueSize: 3, DriftPerAnswer: -0.002}

// TestAdversarialIndexedAssignmentEquivalence extends the scan-vs-indexed
// oracle to adversarial traffic: the candidate index (with and without
// leases armed) must make bit-identical decisions and reach a bit-identical
// Fingerprint even when the answer stream is pathological.
func TestAdversarialIndexedAssignmentEquivalence(t *testing.T) {
	for _, ttl := range []time.Duration{0, time.Hour} {
		s := sameAsScan(t, Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50, LeaseTTL: ttl}, adversarial)
		if s.Stats().LeasesActive != 0 {
			t.Fatalf("serial adversarial campaign left %d leases outstanding", s.Stats().LeasesActive)
		}
	}
}

// TestAdversarialCliqueHammerLeaseBound: a colluding clique floods a tiny
// campaign from G goroutines, every member voting the clique's agreed wrong
// choice on whatever it is assigned. With leases armed, assignment stops
// once answered + leased ≥ R, so a task's final answer count can overshoot
// R only by requests that raced the same grant — at most one per concurrent
// requester (HITSize 1). Run under -race.
func TestAdversarialCliqueHammerLeaseBound(t *testing.T) {
	const (
		redundancy = 5
		goroutines = 16
		nTasks     = 3
		cliqueSeed = 0xbad5eed
	)
	clk := newFakeClock()
	s := newSystem(t, Config{
		GoldenCount: -1, HITSize: 1, AnswersPerTask: redundancy,
		RerunEvery: -1, LeaseTTL: time.Minute, Clock: clk.Now,
	})
	tasks := concTasks(s.m, nTasks)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			empty := 0
			for i := 0; empty < 64; i++ {
				// Fresh worker IDs per request: per-worker duplicate
				// exclusion never throttles the clique, only leases do.
				w := fmt.Sprintf("cliq%d-%d", g, i)
				got, err := s.Request(w, 1)
				if err != nil {
					errs <- err
					return
				}
				if len(got) == 0 {
					empty++
					runtime.Gosched()
					continue
				}
				empty = 0
				for _, tk := range s.Tasks(got) {
					if err := s.Submit(w, tk.ID, crowd.CliqueChoice(cliqueSeed, &tk)); err != nil {
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

	as := s.Answers()
	for _, tk := range tasks {
		got := as.ForTask(tk.ID)
		if len(got) < redundancy {
			t.Errorf("task %d never saturated: %d answers, want >= %d", tk.ID, len(got), redundancy)
		}
		if len(got) > redundancy+goroutines {
			t.Errorf("task %d overshot the a+l >= R bound: %d answers > R(%d) + G(%d)",
				tk.ID, len(got), redundancy, goroutines)
		}
		want := crowd.CliqueChoice(cliqueSeed, tk)
		for _, a := range got {
			if a.Choice != want {
				t.Fatalf("task %d: clique member %s split its vote (%d, want %d)", tk.ID, a.Worker, a.Choice, want)
			}
		}
	}
	if s.Stats().LeasesActive != 0 {
		t.Fatalf("%d leases outstanding after every grant was answered", s.Stats().LeasesActive)
	}
}

// TestAdversarialCrashInjectionRecoveryExact is the kill-point sweep over a
// spammer-heavy crowd (40 % spammers, sleepers, one clique, fatigue drift):
// adversarial answer streams — uniform spam, correlated clique votes,
// mid-campaign sleeper flips — exercise WAL and replay value paths the
// honest traffic never produces, and every surviving prefix must still
// recover bit-identically.
func TestAdversarialCrashInjectionRecoveryExact(t *testing.T) {
	sweep(t, Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 4, RerunEvery: 25}, func(c *campaigns, _ *mathx.Rand) {
		c.publish("c", 60, 0)
		for idle := 0; idle < 64; idle++ {
			if c.crowdVisit("c", 4, 1213) > 0 {
				idle = -1
			}
		}
	}, 24, nil)
}
