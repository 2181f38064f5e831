package assign

import (
	"fmt"

	"docs/internal/model"
)

// DefaultBatchSize is k, the number of tasks batched into one HIT; the
// paper uses k = 20 on AMT (and k = 3 per method in the parallel-comparison
// experiments).
const DefaultBatchSize = 20

// scored is one heap entry: a candidate task's benefit plus its position in
// the candidate stream (the tie-breaker — earlier candidates win).
type scored struct {
	benefit float64
	idx     int
	id      int
}

// worse reports whether a ranks strictly below b: lower benefit, or equal
// benefit and later arrival. Using arrival order as the tie-break keeps the
// selection deterministic for identical inputs, which the campaign
// determinism tests rely on.
func (a scored) worse(b scored) bool {
	if a.benefit != b.benefit {
		return a.benefit < b.benefit
	}
	return a.idx > b.idx
}

// Assigner computes top-k assignments with reusable scratch buffers: the
// benefit evaluation and the bounded min-heap allocate nothing across calls
// (only the returned ID slice is fresh). An Assigner is not safe for
// concurrent use; pool one per goroutine.
type Assigner struct {
	sc   Scratch
	heap []scored
}

// AssignStates selects up to k tasks from candidates with the highest
// benefit for the worker with quality q, per Theorem 4 (batch benefit is
// additive, so top-k individual benefits are optimal). The returned IDs are
// in descending benefit order. The candidates are streamed through a
// size-k min-heap: O(n·m·ℓ²) benefit computation plus O(n log k)
// selection, with no per-candidate allocation.
func (as *Assigner) AssignStates(candidates []TaskState, q model.QualityVector, k int) []int {
	return as.AssignFunc(len(candidates), func(i int, ts *TaskState) bool {
		*ts = candidates[i]
		return true
	}, q, k)
}

// AssignFunc is the streaming form of AssignStates: fetch is called once per
// candidate position in order and either fills ts with the candidate's
// current state (returning true) or rejects the position (returning false —
// an excluded, closed or stale candidate). Rejected positions do not
// consume a tie-break slot, so a stream pre-filtered by the caller and a
// stream filtered through fetch select identically — the property the
// serving core's candidate index relies on to stay bit-identical to the
// full-scan implementation. ts is scratch owned by the Assigner; fetch must
// not retain it across calls.
func (as *Assigner) AssignFunc(n int, fetch func(i int, ts *TaskState) bool, q model.QualityVector, k int) []int {
	if k <= 0 || n == 0 {
		return nil
	}
	// Clamp before sizing the heap: k arrives from the network (the HTTP
	// request's ?k= parameter) and must not drive an allocation.
	if k > n {
		k = n
	}
	if cap(as.heap) < k {
		as.heap = make([]scored, 0, k)
	}
	h := as.heap[:0]
	idx := 0
	var ts TaskState
	for i := 0; i < n; i++ {
		if !fetch(i, &ts) {
			continue
		}
		e := scored{benefit: BenefitWith(&ts, q, &as.sc), idx: idx, id: ts.ID}
		idx++
		if len(h) < k {
			h = append(h, e)
			siftUp(h, len(h)-1)
		} else if h[0].worse(e) {
			h[0] = e
			siftDown(h, 0)
		}
	}
	as.heap = h[:0] // retain capacity for the next call
	if len(h) == 0 {
		return nil
	}
	// Pop the heap into the output back to front: repeatedly remove the
	// worst survivor, leaving the IDs in descending benefit order.
	out := make([]int, len(h))
	for n := len(h); n > 0; n-- {
		out[n-1] = h[0].id
		h[0] = h[n-1]
		h = h[:n-1]
		siftDown(h, 0)
	}
	return out
}

// siftUp restores the min-heap property (worst entry at the root) after
// appending at position i.
func siftUp(h []scored, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].worse(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// siftDown restores the min-heap property after replacing the root.
func siftDown(h []scored, i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h[l].worse(h[worst]) {
			worst = l
		}
		if r < n && h[r].worse(h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// ValidateWorker checks the worker quality vector against m domains.
func ValidateWorker(q model.QualityVector, m int) error {
	if err := q.Validate(m); err != nil {
		return fmt.Errorf("assign: %w", err)
	}
	return nil
}
