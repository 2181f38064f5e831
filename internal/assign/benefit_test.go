package assign

import (
	"math"
	"testing"
	"testing/quick"

	"docs/internal/mathx"
	"docs/internal/model"
)

// randomState builds a random consistent TaskState over m domains and ell
// choices.
func randomState(r *mathx.Rand, id, m, ell int) *TaskState {
	ts := &TaskState{
		ID: id,
		R:  model.DomainVector(r.Dirichlet(m, 1)),
		M:  make([][]float64, m),
	}
	for k := 0; k < m; k++ {
		ts.M[k] = r.Dirichlet(ell, 1)
	}
	s := make([]float64, ell)
	for k, rk := range ts.R {
		for j, v := range ts.M[k] {
			s[j] += rk * v
		}
	}
	ts.S = mathx.Normalize(s)
	return ts
}

func randomQuality(r *mathx.Rand, m int) model.QualityVector {
	q := make(model.QualityVector, m)
	for k := range q {
		q[k] = r.Range(0.05, 0.95)
	}
	return q
}

func TestAnswerProbIsDistribution(t *testing.T) {
	r := mathx.NewRand(3)
	for trial := 0; trial < 100; trial++ {
		m, ell := 2+r.Intn(4), 2+r.Intn(3)
		ts := randomState(r, trial, m, ell)
		q := randomQuality(r, m)
		var sum float64
		for a := 0; a < ell; a++ {
			pa := AnswerProb(ts, q, a)
			if pa < -1e-9 || pa > 1+1e-9 {
				t.Fatalf("Pr(a=%d) = %g out of [0,1]", a, pa)
			}
			sum += pa
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("answer probabilities sum to %g", sum)
		}
	}
}

func TestUpdatedMRowsAreDistributions(t *testing.T) {
	r := mathx.NewRand(5)
	for trial := 0; trial < 100; trial++ {
		m, ell := 2+r.Intn(4), 2+r.Intn(3)
		ts := randomState(r, trial, m, ell)
		q := randomQuality(r, m)
		a := r.Intn(ell)
		Ma := UpdatedM(ts, q, a)
		for k := range Ma {
			if err := mathx.CheckDistribution(Ma[k], 1e-9); err != nil {
				t.Fatalf("M|a row %d: %v", k, err)
			}
		}
	}
}

func TestUpdatedMSharpensTowardAnswer(t *testing.T) {
	// A high-quality worker answering choice 0 must raise M_{k,0} in every
	// domain where the worker is reliable (q_k > 1/ℓ keeps the likelihood
	// ratio above 1).
	ts := &TaskState{
		ID: 1,
		R:  model.DomainVector{0.5, 0.5},
		M:  [][]float64{{0.5, 0.5}, {0.5, 0.5}},
		S:  []float64{0.5, 0.5},
	}
	q := model.QualityVector{0.9, 0.9}
	Ma := UpdatedM(ts, q, 0)
	for k := range Ma {
		if Ma[k][0] <= ts.M[k][0] {
			t.Errorf("domain %d: M|a[0] = %g did not increase from %g", k, Ma[k][0], ts.M[k][0])
		}
	}
	want := 0.9 * 0.5 / (0.9*0.5 + 0.1*0.5)
	if math.Abs(Ma[0][0]-want) > 1e-12 {
		t.Errorf("M|a[0][0] = %g, want %g", Ma[0][0], want)
	}
}

// TestBenefitConfidentTaskIsLow: a task whose truth is already certain has
// (near) zero benefit — the motivating example of Section 5.1
// (s = [0.99, 0.01]).
func TestBenefitConfidentTaskIsLow(t *testing.T) {
	confident := &TaskState{
		ID: 1,
		R:  model.DomainVector{1},
		M:  [][]float64{{0.99, 0.01}},
		S:  []float64{0.99, 0.01},
	}
	ambiguous := &TaskState{
		ID: 2,
		R:  model.DomainVector{1},
		M:  [][]float64{{0.5, 0.5}},
		S:  []float64{0.5, 0.5},
	}
	q := model.QualityVector{0.9}
	bc := Benefit(confident, q)
	ba := Benefit(ambiguous, q)
	if bc >= ba {
		t.Errorf("confident benefit %g >= ambiguous benefit %g", bc, ba)
	}
	if bc > 0.05 {
		t.Errorf("confident benefit %g, want near zero", bc)
	}
}

// TestBenefitPrefersExpertDomain: for the same ambiguous task, a worker who
// is expert in the task's domain yields a larger benefit than a novice —
// and a task in the worker's expert domain beats one outside it.
func TestBenefitPrefersExpertDomain(t *testing.T) {
	task := &TaskState{
		ID: 1,
		R:  model.DomainVector{1, 0},
		M:  [][]float64{{0.5, 0.5}},
		S:  []float64{0.5, 0.5},
	}
	expert := model.QualityVector{0.95, 0.5}
	novice := model.QualityVector{0.55, 0.5}
	if be, bn := Benefit(task, expert), Benefit(task, novice); be <= bn {
		t.Errorf("expert benefit %g <= novice benefit %g", be, bn)
	}

	inDomain := task
	outDomain := &TaskState{
		ID: 2,
		R:  model.DomainVector{0, 1},
		M:  [][]float64{{0.5, 0.5}},
		S:  []float64{0.5, 0.5},
	}
	if bi, bo := Benefit(inDomain, expert), Benefit(outDomain, expert); bi <= bo {
		t.Errorf("in-domain benefit %g <= out-of-domain %g", bi, bo)
	}
}

// TestBenefitNonNegativeSingleDomain: for a single-domain task the
// predictive distribution (Theorem 2) is exactly the Bayes marginal of the
// update (Theorem 3), so by concavity of entropy the benefit is
// non-negative. (With several domains the paper's r-weighted mixture can
// produce tiny negative benefits, which is why this property is asserted
// only at m = 1.)
func TestBenefitNonNegativeSingleDomain(t *testing.T) {
	r := mathx.NewRand(7)
	f := func(seed uint64) bool {
		r.Seed(seed)
		ts := randomState(r, 0, 1, 2+r.Intn(3))
		q := randomQuality(r, 1)
		return Benefit(ts, q) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPerDomainMartingale: Theorems 2 and 3 are mutually consistent within
// each domain: Σ_a Pr(a | o=k)·M|a_{k,•} = M_{k,•}, where Pr(a | o=k) is
// the domain-k answer likelihood q_k·M_{k,a} + (1−q_k)/(ℓ−1)·(1−M_{k,a}).
func TestPerDomainMartingale(t *testing.T) {
	r := mathx.NewRand(19)
	for trial := 0; trial < 100; trial++ {
		m, ell := 1+r.Intn(4), 2+r.Intn(3)
		ts := randomState(r, trial, m, ell)
		q := randomQuality(r, m)
		for k := 0; k < m; k++ {
			mixed := make([]float64, ell)
			for a := 0; a < ell; a++ {
				pak := q[k]*ts.M[k][a] + (1-q[k])/float64(ell-1)*(1-ts.M[k][a])
				Ma := UpdatedM(ts, q, a)
				for j := 0; j < ell; j++ {
					mixed[j] += pak * Ma[k][j]
				}
			}
			for j := 0; j < ell; j++ {
				if math.Abs(mixed[j]-ts.M[k][j]) > 1e-9 {
					t.Fatalf("domain %d: martingale violated: mixed %v vs M %v", k, mixed, ts.M[k])
				}
			}
		}
	}
}

// TestTheorem4Additivity: the enumerated batch benefit (Equation 10) must
// equal the sum of individual benefits.
func TestTheorem4Additivity(t *testing.T) {
	r := mathx.NewRand(11)
	f := func(seed uint64) bool {
		r.Seed(seed)
		m := 1 + r.Intn(3)
		kTasks := 1 + r.Intn(3)
		q := randomQuality(r, m)
		batch := make([]*TaskState, kTasks)
		var sum float64
		for i := range batch {
			batch[i] = randomState(r, i, m, 2+r.Intn(2))
			sum += Benefit(batch[i], q)
		}
		enum := BatchBenefitEnum(batch, q)
		return math.Abs(enum-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBatchBenefitEnumEmpty(t *testing.T) {
	if b := BatchBenefitEnum(nil, model.QualityVector{0.5}); b != 0 {
		t.Errorf("empty batch benefit = %g", b)
	}
}

func TestTaskStateValidate(t *testing.T) {
	r := mathx.NewRand(13)
	ts := randomState(r, 1, 3, 2)
	if err := ts.Validate(3); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
	bad := randomState(r, 2, 3, 2)
	bad.M = bad.M[:2]
	if err := bad.Validate(3); err == nil {
		t.Error("short M accepted")
	}
	// M holds the support's rows and nothing else: a third row for a task
	// that relates to two domains is as wrong as a missing one.
	sparse := randomState(r, 5, 3, 2)
	sparse.R = model.DomainVector{0.5, 0, 0.5}
	if err := sparse.Validate(3); err == nil {
		t.Error("a row for a zero-weight domain accepted")
	}
	sparse.M = [][]float64{sparse.M[0], sparse.M[2]}
	sparse.S = []float64{(sparse.M[0][0] + sparse.M[1][0]) / 2, (sparse.M[0][1] + sparse.M[1][1]) / 2}
	if err := sparse.Validate(3); err != nil {
		t.Errorf("support-rows state rejected: %v", err)
	}
	bad2 := randomState(r, 3, 3, 2)
	bad2.S = []float64{0.6, 0.6}
	if err := bad2.Validate(3); err == nil {
		t.Error("non-normalized s accepted")
	}
	bad3 := randomState(r, 4, 3, 2)
	bad3.S = bad3.S[:1]
	if err := bad3.Validate(3); err == nil {
		t.Error("single-choice s accepted")
	}
}
