package assign

import (
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

func TestAssignPicksHighestBenefit(t *testing.T) {
	// Three tasks: one ambiguous in the worker's expert domain, one
	// ambiguous outside it, one already confident. The expert-domain
	// ambiguous task must be ranked first, confident last.
	// (M holds one row per domain with r_k > 0: one row each here.)
	expertAmbiguous := TaskState{
		ID: 1, R: model.DomainVector{1, 0},
		M: [][]float64{{0.5, 0.5}}, S: []float64{0.5, 0.5},
	}
	otherAmbiguous := TaskState{
		ID: 2, R: model.DomainVector{0, 1},
		M: [][]float64{{0.5, 0.5}}, S: []float64{0.5, 0.5},
	}
	confident := TaskState{
		ID: 3, R: model.DomainVector{1, 0},
		M: [][]float64{{0.99, 0.01}}, S: []float64{0.99, 0.01},
	}
	// The worker is a domain-0 expert and a pure coin flip on domain 1, so
	// the domain-1 task carries exactly zero information benefit.
	q := model.QualityVector{0.95, 0.5}

	var as Assigner
	got := as.AssignStates([]TaskState{confident, otherAmbiguous, expertAmbiguous}, q, 3)
	if len(got) != 3 {
		t.Fatalf("assigned %d tasks, want 3", len(got))
	}
	if got[0] != 1 {
		t.Errorf("first assignment = task %d, want 1 (expert-domain ambiguous)", got[0])
	}
	if got[2] != 2 {
		t.Errorf("last assignment = task %d, want 2 (coin-flip domain, zero benefit)", got[2])
	}
}

func TestAssignExcludesAnswered(t *testing.T) {
	r := mathx.NewRand(3)
	states := make([]TaskState, 10)
	for i := range states {
		states[i] = *randomState(r, i, 2, 2)
	}
	q := model.QualityVector{0.8, 0.8}
	answered := map[int]bool{0: true, 1: true, 2: true}
	var as Assigner
	got := as.AssignFunc(len(states), func(i int, ts *TaskState) bool {
		*ts = states[i]
		return !answered[ts.ID]
	}, q, 5)
	if len(got) != 5 {
		t.Fatalf("assigned %d, want 5", len(got))
	}
	for _, id := range got {
		if answered[id] {
			t.Errorf("assigned already-answered task %d", id)
		}
	}
}

func TestAssignFewerCandidatesThanK(t *testing.T) {
	r := mathx.NewRand(4)
	states := []TaskState{*randomState(r, 0, 2, 2), *randomState(r, 1, 2, 2)}
	q := model.QualityVector{0.8, 0.8}
	var as Assigner
	got := as.AssignStates(states, q, 20)
	if len(got) != 2 {
		t.Errorf("assigned %d, want 2", len(got))
	}
}

func TestAssignEdgeCases(t *testing.T) {
	q := model.QualityVector{0.8}
	var as Assigner
	if got := as.AssignStates(nil, q, 5); got != nil {
		t.Errorf("Assign(no candidates) = %v", got)
	}
	r := mathx.NewRand(5)
	states := []TaskState{*randomState(r, 0, 1, 2)}
	if got := as.AssignStates(states, q, 0); got != nil {
		t.Errorf("Assign(k=0) = %v", got)
	}
	none := func(int, *TaskState) bool { return false }
	if got := as.AssignFunc(len(states), none, q, 5); got != nil {
		t.Errorf("Assign(all excluded) = %v", got)
	}
}

func TestAssignHugeKDoesNotAllocate(t *testing.T) {
	// k arrives from the network (?k= on the HTTP API); a huge value must
	// be clamped to the candidate count, not drive a heap allocation. The
	// allocation count is the guard: without the clamp, sizing the heap
	// from k would attempt a multi-gigabyte make.
	r := mathx.NewRand(6)
	states := []TaskState{*randomState(r, 0, 2, 2), *randomState(r, 1, 2, 2)}
	q := model.QualityVector{0.8, 0.8}
	var as Assigner
	var got []int
	allocs := testing.AllocsPerRun(10, func() {
		got = as.AssignStates(states, q, 1<<30)
	})
	if len(got) != 2 {
		t.Errorf("assigned %d, want 2", len(got))
	}
	// One small allocation for the returned ID slice; the heap itself must
	// be sized by the candidate count, not k.
	if allocs > 2 {
		t.Errorf("Assign(k=1<<30) made %.0f allocs/run, want <= 2 (clamp lost?)", allocs)
	}
}
