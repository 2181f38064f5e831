package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"docs/internal/crashtest"
	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/wal"
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

// traceAdversarialCampaign is traceCampaign with an adversarial
// population: same dataset, same serial protocol, but ~45% of the workers
// are spammers/sleepers/colluders and everyone drifts.
func traceAdversarialCampaign(t *testing.T, s *System) (string, *System) {
	t.Helper()
	ds := dataset.Item(3)
	tasks := ds.Tasks[:120]
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	m := kb.MustDefault().Domains().Size()
	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers: 24, M: m, RelevantDomains: ds.YahooIndex, Seed: 7,
		Adversarial: crowd.Adversarial{
			SpammerFraction: 0.25,
			SleeperFraction: 0.125,
			Cliques:         1, CliqueSize: 3,
			DriftPerAnswer: -0.002,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := pop.Rand()
	trace := ""
	for hit := 0; hit < 400; hit++ {
		w := pop.Arrival()
		got, err := s.Request(w.ID, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		for _, tk := range s.Tasks(got) {
			c := w.Answer(&tk, r)
			trace += fmt.Sprintf("%s:%d:%d;", w.ID, tk.ID, c)
			if err := s.Submit(w.ID, tk.ID, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trace, s
}

// TestAdversarialIndexedAssignmentEquivalence extends the scan-vs-indexed
// oracle to adversarial traffic: the candidate index (with and without
// leases armed) must make bit-identical decisions and reach a bit-identical
// Fingerprint even when the answer stream is pathological.
func TestAdversarialIndexedAssignmentEquivalence(t *testing.T) {
	base := Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50}
	leaseCfg := base
	leaseCfg.LeaseTTL = time.Hour

	scanTrace, scanSys := traceAdversarialCampaign(t, newScanSystem(t, base))
	idxTrace, idxSys := traceAdversarialCampaign(t, newSystem(t, base))
	leaseTrace, leaseSys := traceAdversarialCampaign(t, newSystem(t, leaseCfg))

	diffTraces(t, "adversarial scan vs indexed", scanTrace, idxTrace)
	diffTraces(t, "adversarial scan vs indexed+leases", scanTrace, leaseTrace)
	if fa, fb := scanSys.Fingerprint(), idxSys.Fingerprint(); fa != fb {
		t.Fatal("fingerprints differ between scan and indexed paths under adversarial traffic")
	}
	if fa, fb := scanSys.Fingerprint(), leaseSys.Fingerprint(); fa != fb {
		t.Fatal("fingerprints differ between scan and leased paths under adversarial traffic")
	}
	if leaseSys.Stats().LeasesActive != 0 {
		t.Fatalf("serial adversarial campaign left %d leases outstanding", leaseSys.Stats().LeasesActive)
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

// runLoggedAdversarialCampaign drives a spammer-heavy campaign (40%
// spammers, sleepers, one clique, fatigue drift) with the WAL armed and
// returns the durable record stream — the adversarial twin of
// runLoggedCampaign.
func runLoggedAdversarialCampaign(t *testing.T, cfg Config, dir string, nTasks int) []wal.Record {
	t.Helper()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(concTasks(s.m, nTasks)); err != nil {
		t.Fatal(err)
	}
	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers: 16, M: s.m, Seed: 1213,
		Adversarial: crowd.Adversarial{
			SpammerFraction: 0.4,
			SleeperFraction: 0.15,
			Cliques:         1, CliqueSize: 3,
			DriftPerAnswer: -0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := pop.Rand()
	for idle := 0; idle < 4*len(pop.Workers); {
		w := pop.Arrival()
		got, err := s.Request(w.ID, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			idle++
			continue
		}
		idle = 0
		for _, tk := range s.Tasks(got) {
			if err := s.Submit(w.ID, tk.ID, w.Answer(&tk, r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	return crashtest.ReadStream(t, dir)
}

// TestAdversarialCrashInjectionRecoveryExact reuses the Fingerprint
// kill-point harness on the spammer-heavy campaign: adversarial answer
// streams (uniform spam, correlated clique votes, mid-campaign sleeper
// flips) exercise WAL/replay value paths the honest simulator never
// produces, and every surviving prefix must still recover bit-identically.
func TestAdversarialCrashInjectionRecoveryExact(t *testing.T) {
	cfg := Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 4, RerunEvery: 25,
		WALSegmentBytes: 1 << 10}
	srcDir := t.TempDir()
	runLoggedAdversarialCampaign(t, cfg, srcDir, 60)
	log := crashtest.ReadLog(t, srcDir)
	n := len(log.Records)
	if n < 50 {
		t.Fatalf("adversarial campaign produced only %d records", n)
	}
	sweepKills(t, cfg, log, crashtest.Kills(mathx.NewRand(13), 24, n, 0, crashtest.Kill{Surviving: n - 1, Torn: 5}), nil)
}
