package core

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"docs/internal/assign"
	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
)

// traceCampaign drives a full serial campaign (the determinism-test
// workload: golden gauntlet + OTA + periodic reruns + redundancy cap) on a
// fresh system and returns the assignment/answer trace plus that system,
// so callers can compare both the decisions and the final state.
func traceCampaign(t *testing.T, s *System) (string, *System) {
	t.Helper()
	ds := dataset.Item(3)
	tasks := ds.Tasks[:120]
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	m := kb.MustDefault().Domains().Size()
	pop, err := crowd.NewPopulation(crowd.Config{NumWorkers: 24, M: m, RelevantDomains: ds.YahooIndex, Seed: 7})
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

func diffTraces(t *testing.T, label, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hi := i + 120
			if hi > n {
				hi = n
			}
			t.Fatalf("%s: diverge at %d:\nA: ...%s\nB: ...%s", label, i, a[lo:hi], b[lo:hi])
		}
	}
	t.Fatalf("%s: one trace is a prefix of the other (len %d vs %d)", label, len(a), len(b))
}

// newScanSystem builds a System served by the assignScan oracle instead of
// the candidate index.
func newScanSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	s := newSystem(t, cfg)
	s.assignOracle = s.assignScan
	return s
}

// assignScan is the seed's per-request full scan: rebuild the candidate
// set from all tasks, materializing a TaskState slice proportional to
// campaign size. It survives as the equivalence oracle a test system
// assigns through (System.assignOracle, TestIndexedAssignmentEquivalence):
// the indexed path must stay bit-identical to it on serial campaigns.
func (s *System) assignScan(as *assign.Assigner, w int32, held []int, q model.QualityVector, k, redundancy int) []int {
	s.mu.RLock()
	golden := s.golden
	s.mu.RUnlock()
	ci := s.index.Load()
	backing := make([]assign.TaskState, 0, len(golden))
	for p := range golden {
		if _, leased := slices.BinarySearch(held, p); golden[p] || leased {
			continue
		}
		v := ci.view(int32(p))
		if v.Answered(w) {
			continue
		}
		if redundancy > 0 {
			open := redundancy - v.NumAnswers
			if s.leases != nil {
				open -= int(s.leases.slots[p].Load())
			}
			if open <= 0 {
				continue
			}
		}
		backing = append(backing, assign.TaskState{ID: p, R: ci.rests[p].R, M: v.M, S: v.S})
	}
	return as.AssignStates(backing, q, k)
}

// TestIndexedAssignmentEquivalence is the tentpole contract: a serial
// campaign served from the candidate index makes bit-identical assignment
// decisions — and therefore ends in bit-identical campaign state
// (Fingerprint compares every float as raw bits) — to the seed's
// per-request full scan.
func TestIndexedAssignmentEquivalence(t *testing.T) {
	base := Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50}
	scanTrace, scanSys := traceCampaign(t, newScanSystem(t, base))
	idxTrace, idxSys := traceCampaign(t, newSystem(t, base))
	diffTraces(t, "scan vs indexed", scanTrace, idxTrace)
	if fa, fb := scanSys.Fingerprint(), idxSys.Fingerprint(); fa != fb {
		t.Fatalf("fingerprints differ between scan and indexed paths")
	}
	if idxSys.Stats().IndexEpoch == 0 {
		t.Fatalf("indexed system never published a candidate array")
	}
}

// TestIndexedAssignmentEquivalenceWithLeases pins the lease no-op contract
// for serial traffic: in a request-then-answer-everything campaign every
// lease is released before the next request, so arming leases changes
// nothing — the trace stays bit-identical to the lease-free scan.
func TestIndexedAssignmentEquivalenceWithLeases(t *testing.T) {
	base := Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50}
	leaseCfg := base
	leaseCfg.LeaseTTL = time.Hour
	scanTrace, scanSys := traceCampaign(t, newScanSystem(t, base))
	leaseTrace, leaseSys := traceCampaign(t, newSystem(t, leaseCfg))
	diffTraces(t, "scan vs indexed+leases", scanTrace, leaseTrace)
	if fa, fb := scanSys.Fingerprint(), leaseSys.Fingerprint(); fa != fb {
		t.Fatalf("fingerprints differ between scan and leased indexed paths")
	}
	if leaseSys.Stats().LeasesActive != 0 {
		t.Fatalf("serial campaign left %d leases outstanding", leaseSys.Stats().LeasesActive)
	}
}

// indexTasks builds n two-choice tasks with precomputed one-hot domain
// vectors (skipping DVE) for index unit tests.
func indexTasks(n, m int) []*model.Task {
	tasks := make([]*model.Task, n)
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[i%m] = 1
		tasks[i] = &model.Task{
			ID: i, Text: fmt.Sprintf("t%d", i), Choices: []string{"a", "b"},
			Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth,
		}
	}
	return tasks
}

// TestCandidateIndexMaintenance checks the open-task set shrinks as
// redundancy is met — maintained on the submit path, not rediscovered per
// request — and that the published array compacts (epoch advances) as
// closures accumulate.
func TestCandidateIndexMaintenance(t *testing.T) {
	const n, redundancy = 8, 2
	s := newSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: redundancy, RerunEvery: -1})
	m := s.Domains().Size()
	if err := s.Publish(indexTasks(n, m)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().OpenTasks; got != n {
		t.Fatalf("OpenTasks after publish = %d, want %d", got, n)
	}
	epoch0 := s.Stats().IndexEpoch
	if epoch0 == 0 {
		t.Fatalf("IndexEpoch = 0 after publish")
	}

	// Meet redundancy on task 0: it must leave the open set immediately.
	for _, w := range []string{"w1", "w2"} {
		if err := s.Submit(w, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().OpenTasks; got != n-1 {
		t.Fatalf("OpenTasks after closing task 0 = %d, want %d", got, n-1)
	}

	// Close everything: the open set drains to zero, the array compacts
	// (epoch advances), and requests come back empty.
	for id := 1; id < n; id++ {
		for _, w := range []string{"w1", "w2"} {
			if err := s.Submit(w, id, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Stats().OpenTasks; got != 0 {
		t.Fatalf("OpenTasks after closing all = %d, want 0", got)
	}
	if s.Stats().IndexEpoch == epoch0 {
		t.Fatalf("IndexEpoch never advanced past %d despite %d closures", epoch0, n)
	}
	got, err := s.Request("fresh", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Request on a drained campaign returned %d tasks", len(got))
	}
}

// TestCandidateIndexResyncReopens exercises the reopen direction: resync
// (the post-rerun pass) must restore any task whose live snapshot says it
// is back under the redundancy cap, even if the incremental path had
// marked it closed.
func TestCandidateIndexResyncReopens(t *testing.T) {
	const n = 6
	s := newSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 1, RerunEvery: -1})
	m := s.Domains().Size()
	if err := s.Publish(indexTasks(n, m)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("w1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().OpenTasks; got != n-1 {
		t.Fatalf("OpenTasks = %d, want %d", got, n-1)
	}

	// Force-mark an unanswered task closed, as if a rerun swap had left the
	// incremental bookkeeping behind; resync must reopen it from the live
	// snapshot (0 answers < cap) while leaving the genuinely closed task 0
	// out.
	ci := s.index.Load()
	ci.mu.Lock()
	p, _ := s.position(3)
	ci.open[p] = false
	ci.openCount.Add(-1)
	ci.stale++
	ci.mu.Unlock()
	if got := s.Stats().OpenTasks; got != n-2 {
		t.Fatalf("OpenTasks after force-close = %d, want %d", got, n-2)
	}
	ci.resync(1)
	if got := s.Stats().OpenTasks; got != n-1 {
		t.Fatalf("OpenTasks after resync = %d, want %d (task 3 reopened)", got, n-1)
	}
	arr := ci.load()
	found := false
	for _, p := range arr.entries {
		if ci.ids[p] == 0 {
			t.Fatalf("resync republished closed task 0")
		}
		if ci.ids[p] == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reopened task 3 missing from the published candidate array")
	}
}

// TestPublishRejectionLeavesNoState: a rejected batch (duplicate ID or
// invalid task) must leave the system untouched, so fixing the batch and
// re-publishing succeeds — no leftover byID entries to collide with, no
// half-published campaign with an empty candidate index.
func TestPublishRejectionLeavesNoState(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	m := s.Domains().Size()
	bad := indexTasks(3, m)
	bad[2].ID = bad[0].ID // duplicate
	if err := s.Publish(bad); err == nil {
		t.Fatal("publish accepted a duplicate task ID")
	}
	if s.Published() {
		t.Fatal("rejected publish left the campaign published")
	}
	if got := s.Stats().OpenTasks; got != 0 {
		t.Fatalf("rejected publish left %d open tasks", got)
	}
	good := indexTasks(3, m)
	if err := s.Publish(good); err != nil {
		t.Fatalf("re-publish after rejection: %v", err)
	}
	if got := s.Stats().OpenTasks; got != 3 {
		t.Fatalf("OpenTasks after re-publish = %d, want 3", got)
	}
	if tasks, err := s.Request("w", 3); err != nil || len(tasks) != 3 {
		t.Fatalf("Request after re-publish = %d tasks, err %v", len(tasks), err)
	}
}

// denseBenefit is Definition 5 as the assignment layer computed it while a
// task's truth matrix held all m rows: M indexed by domain, the zero-weight
// rows skipped. The oracle TestBenefitCompactMatchesDenseOnTraces holds
// assign.BenefitWith to.
func denseBenefit(r model.DomainVector, M [][]float64, s []float64, q model.QualityVector) float64 {
	ell := len(s)
	post, row := make([]float64, ell), make([]float64, ell)
	var expected float64
	for a := range s {
		var pa float64
		for k, rk := range r {
			if rk == 0 {
				continue
			}
			mka := M[k][a]
			pa += rk * (q[k]*mka + (1-q[k])/(float64(ell)-1)*(1-mka))
		}
		if pa == 0 {
			continue
		}
		clear(post)
		for k, rk := range r {
			if rk == 0 {
				continue
			}
			wrong := (1 - q[k]) / float64(ell-1)
			var sum float64
			for j, mkj := range M[k] {
				if j == a {
					row[j] = mkj * q[k]
				} else {
					row[j] = mkj * wrong
				}
				sum += row[j]
			}
			for j := range row {
				if sum > 0 {
					post[j] += rk * (row[j] / sum)
				} else {
					post[j] += rk * (1 / float64(ell))
				}
			}
		}
		expected += pa * mathx.Entropy(mathx.Normalize(post))
	}
	return mathx.Entropy(s) - expected
}

// TestBenefitCompactMatchesDenseOnTraces: at the end of the seeded campaign
// the equivalence tests above drive (DVE-computed vectors, reruns, the
// redundancy cap), every task's published view — support rows only — gives
// every worker the benefit, bit for bit, that the dense formulation gives
// over the same task with all m rows present (the rows outside the support
// poisoned with NaN: nothing may read them).
func TestBenefitCompactMatchesDenseOnTraces(t *testing.T) {
	_, s := traceCampaign(t, newSystem(t, Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50}))
	var sc assign.Scratch
	answered, rows := 0, 0
	for p, tk := range publishedTasks(s) {
		if s.golden[p] { // pinned, never assigned by benefit
			continue
		}
		v := s.index.Load().view(int32(p))
		if len(v.M) != tk.Domain.Support() {
			t.Fatalf("task %d: view holds %d rows for a support of %d", tk.ID, len(v.M), tk.Domain.Support())
		}
		dense := make([][]float64, s.m)
		x := 0
		for k := range dense {
			if tk.Domain.Has(k) {
				dense[k] = v.M[x]
				x++
				continue
			}
			dense[k] = make([]float64, len(v.S))
			for j := range dense[k] {
				dense[k][j] = math.NaN()
			}
		}
		if v.NumAnswers > 0 {
			answered++
			rows += len(v.M)
		}
		ts := assign.TaskState{ID: tk.ID, R: tk.Domain, M: v.M, S: v.S}
		for _, w := range s.inc.Workers() {
			q := s.inc.Worker(w).Q
			got, want := assign.BenefitWith(&ts, q, &sc), denseBenefit(tk.Domain, dense, v.S, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("task %d worker %s: benefit %x over the support rows, %x dense", tk.ID, w, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	if answered == 0 || rows == answered*s.m {
		t.Fatalf("%d answered tasks holding %d rows: the trace no longer exercises a sparse support", answered, rows)
	}
	t.Logf("%d answered tasks, mean support %.2f of %d domains", answered, float64(rows)/float64(answered), s.m)
}
