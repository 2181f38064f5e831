// Package assign implements the Online Task Assignment (OTA) module of DOCS
// (Section 5 of the paper).
//
// When a worker requests tasks, OTA estimates for every unanswered task the
// expected reduction in truth ambiguity if this worker were to answer it
// (the benefit B(t_i), Definition 5), using the worker's per-domain quality,
// the task's domain vector, and the task's current truth matrix M^(i).
// Theorem 4 shows the benefit of a k-task batch is the sum of individual
// benefits, so the optimal batch is the top-k tasks by benefit, selected in
// linear time.
//
// The package also implements golden-task selection (Section 5.2): choosing
// n' tasks with known ground truth whose domain distribution best matches
// the whole task set's, by approximately minimizing a KL-divergence integer
// program (Equation 11).
package assign

import (
	"fmt"

	"docs/internal/mathx"
	"docs/internal/model"
)

// TaskState is the per-task information OTA consumes: the domain vector and
// the current truth matrix/vector maintained by the TI module.
type TaskState struct {
	// ID identifies the task.
	ID int
	// R is the task's domain vector r^{t_i}.
	R model.DomainVector
	// M is the truth matrix M^(i): one row of ℓ floats per domain in R's
	// support (r_k > 0, see model.DomainVector.Has), in ascending domain
	// order, and nothing else — the form truth.TaskView.M has. A row with
	// r_k = 0 would be multiplied by zero in Theorems 2 and 3 alike.
	M [][]float64
	// S is the probabilistic truth s_i = r × M.
	S []float64
}

// Validate checks structural invariants against m domains.
func (ts *TaskState) Validate(m int) error {
	if err := ts.R.Validate(m); err != nil {
		return fmt.Errorf("assign: task %d: %w", ts.ID, err)
	}
	if rows := ts.R.Support(); len(ts.M) != rows {
		return fmt.Errorf("assign: task %d: M has %d rows, want the %d of R's support", ts.ID, len(ts.M), rows)
	}
	ell := len(ts.S)
	if ell < 2 {
		return fmt.Errorf("assign: task %d: s has size %d, want >= 2", ts.ID, ell)
	}
	for k, row := range ts.M {
		if len(row) != ell {
			return fmt.Errorf("assign: task %d: M row %d has size %d, want %d", ts.ID, k, len(row), ell)
		}
		if err := mathx.CheckDistribution(row, model.Tolerance); err != nil {
			return fmt.Errorf("assign: task %d row %d: %w", ts.ID, k, err)
		}
	}
	if err := mathx.CheckDistribution(ts.S, model.Tolerance); err != nil {
		return fmt.Errorf("assign: task %d s: %w", ts.ID, err)
	}
	return nil
}

// AnswerProb computes Theorem 2: the probability the worker with quality q
// gives choice a to the task, given the answers collected so far:
//
//	Pr(v^w = a | V) = Σ_k r_k · [ q_k·M_{k,a} + (1−q_k)/(ℓ−1)·(1−M_{k,a}) ].
func AnswerProb(ts *TaskState, q model.QualityVector, a int) float64 {
	ell := float64(len(ts.S))
	var p float64
	r, x := ts.R, 0
	for k, rk := range r {
		if !r.Has(k) {
			continue
		}
		mka := ts.M[x][a]
		x++
		p += rk * (q[k]*mka + (1-q[k])/(ell-1)*(1-mka))
	}
	return p
}

// UpdatedM computes Theorem 3: the truth matrix M^(i)|a after the worker
// with quality q answers choice a, in the same support-rows form as ts.M.
// The row of domain k is reweighted by the likelihood of the answer under
// domain k and renormalized.
func UpdatedM(ts *TaskState, q model.QualityVector, a int) [][]float64 {
	ell := len(ts.S)
	out := make([][]float64, 0, len(ts.M))
	for k := range ts.R {
		if !ts.R.Has(k) {
			continue
		}
		row, qk := ts.M[len(out)], q[k]
		wrong := (1 - qk) / float64(ell-1)
		nr := make([]float64, ell)
		var sum float64
		for j, mkj := range row {
			if j == a {
				nr[j] = mkj * qk
			} else {
				nr[j] = mkj * wrong
			}
			sum += nr[j]
		}
		if sum > 0 {
			for j := range nr {
				nr[j] /= sum
			}
		} else {
			copy(nr, mathx.Uniform(ell))
		}
		out = append(out, nr)
	}
	return out
}

// PosteriorS returns s after the update of Theorem 3: r × (M|a).
func PosteriorS(ts *TaskState, q model.QualityVector, a int) []float64 {
	Ma := UpdatedM(ts, q, a)
	s := make([]float64, len(ts.S))
	x := 0
	for k, rk := range ts.R {
		if !ts.R.Has(k) {
			continue
		}
		for j, v := range Ma[x] {
			s[j] += rk * v
		}
		x++
	}
	return mathx.Normalize(s)
}

// Scratch holds reusable buffers for benefit computation. The seed
// implementation allocated an m×ℓ matrix per (task, choice) pair inside
// Benefit — roughly n·ℓ·(m+2) slices per assignment decision; with a
// Scratch the whole top-k scan over n candidates allocates nothing. A
// Scratch is not safe for concurrent use; give each goroutine its own
// (the core orchestrator keeps them in a sync.Pool).
type Scratch struct {
	post []float64 // posterior s accumulator (ℓ)
	row  []float64 // one renormalized row of M|a (ℓ)
}

func (sc *Scratch) ensure(ell int) {
	if cap(sc.post) < ell {
		sc.post = make([]float64, ell)
		sc.row = make([]float64, ell)
	}
	sc.post = sc.post[:ell]
	sc.row = sc.row[:ell]
}

// posterior fills sc.post with PosteriorS(ts, q, a) without allocating. The
// arithmetic mirrors UpdatedM + PosteriorS term for term (same operation
// order), so results are bit-identical to the allocating path.
func (sc *Scratch) posterior(ts *TaskState, q model.QualityVector, a int) []float64 {
	ell := len(ts.S)
	sc.ensure(ell)
	for j := range sc.post {
		sc.post[j] = 0
	}
	r, x := ts.R, 0
	for k, rk := range r {
		if !r.Has(k) {
			continue
		}
		qk := q[k]
		wrong := (1 - qk) / float64(ell-1)
		var sum float64
		row := ts.M[x]
		x++
		for j, mkj := range row {
			if j == a {
				sc.row[j] = mkj * qk
			} else {
				sc.row[j] = mkj * wrong
			}
			sum += sc.row[j]
		}
		if sum > 0 {
			for j := range sc.row {
				sc.post[j] += rk * (sc.row[j] / sum)
			}
		} else {
			u := 1 / float64(ell)
			for j := range sc.row {
				sc.post[j] += rk * u
			}
		}
	}
	return mathx.Normalize(sc.post)
}

// BenefitWith computes Benefit using the caller's scratch buffers; the hot
// assignment path calls this once per candidate task with a reused Scratch
// and performs zero allocations.
func BenefitWith(ts *TaskState, q model.QualityVector, sc *Scratch) float64 {
	h0 := mathx.Entropy(ts.S)
	var expected float64
	for a := range ts.S {
		pa := AnswerProb(ts, q, a)
		if pa == 0 {
			continue
		}
		expected += pa * mathx.Entropy(sc.posterior(ts, q, a))
	}
	return h0 - expected
}

// Benefit computes Definition 5 with the expected posterior entropy of
// Equation 8:
//
//	B(t_i) = H(s_i) − Σ_a H(r × M^(i)|a) · Pr(v^w = a | V).
func Benefit(ts *TaskState, q model.QualityVector) float64 {
	var sc Scratch
	return BenefitWith(ts, q, &sc)
}

// BatchBenefitEnum computes the expected benefit B(T_k) of a fixed batch by
// direct enumeration over all answer combinations Φ (Equations 9–10). Its
// cost is Π ℓ_i; it exists as the correctness oracle for Theorem 4 and is
// exercised only in tests and ablation benchmarks.
func BatchBenefitEnum(batch []*TaskState, q model.QualityVector) float64 {
	if len(batch) == 0 {
		return 0
	}
	var total float64
	combo := make([]int, len(batch))
	var rec func(i int, prob float64, benefit float64)
	rec = func(i int, prob float64, benefit float64) {
		if prob == 0 {
			return
		}
		if i == len(batch) {
			total += prob * benefit
			return
		}
		ts := batch[i]
		for a := range ts.S {
			pa := AnswerProb(ts, q, a)
			combo[i] = a
			db := mathx.Entropy(ts.S) - mathx.Entropy(PosteriorS(ts, q, a))
			rec(i+1, prob*pa, benefit+db)
		}
	}
	rec(0, 1, 0)
	return total
}
