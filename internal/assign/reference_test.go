package assign

import (
	"math"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// benefitDense is Definition 5 as it was computed while a task's truth
// matrix held all m rows: M is indexed by domain and the zero-weight rows
// are skipped. Kept as the oracle TestBenefitCompactMatchesDense holds the
// support-rows form to, bit for bit.
func benefitDense(r model.DomainVector, M [][]float64, s []float64, q model.QualityVector) float64 {
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
			qk := q[k]
			wrong := (1 - qk) / float64(ell-1)
			var sum float64
			for j, mkj := range M[k] {
				if j == a {
					row[j] = mkj * qk
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

// TestBenefitCompactMatchesDense: over seeded states of every support size
// from 1 to m — one-hot rows and −0 entries among them — Benefit,
// BenefitWith, AnswerProb and PosteriorS over the support-rows state are,
// bit for bit, what the dense formulation gives over the same task with all
// m rows present (the zero-weight ones poisoned with NaN: nothing may read
// them).
func TestBenefitCompactMatchesDense(t *testing.T) {
	r := mathx.NewRand(20160412)
	var sc Scratch
	for trial := 0; trial < 400; trial++ {
		m, ell := 1+r.Intn(26), 2+r.Intn(4)
		rows := 1 + r.Intn(m)
		if trial%3 == 0 {
			rows = 1
		}
		weights := r.Dirichlet(rows, 0.8)
		ts := &TaskState{ID: trial, R: make(model.DomainVector, m), S: make([]float64, ell)}
		dense := make([][]float64, m)
		for k := range dense {
			dense[k] = make([]float64, ell)
			for j := range dense[k] {
				dense[k][j] = math.NaN()
			}
			if r.Intn(4) == 0 {
				ts.R[k] = math.Copysign(0, -1)
			}
		}
		for x, k := range r.Perm(m)[:rows] {
			ts.R[k] = weights[x]
		}
		for k := range ts.R {
			if !ts.R.Has(k) {
				continue
			}
			row := r.Dirichlet(ell, 0.5)
			if r.Intn(5) == 0 { // a pinned task's row
				clear(row)
				row[r.Intn(ell)] = 1
			}
			ts.M = append(ts.M, row)
			dense[k] = row
			for j, v := range row {
				ts.S[j] += ts.R[k] * v
			}
		}
		mathx.Normalize(ts.S)
		q := randomQuality(r, m)

		want := benefitDense(ts.R, dense, ts.S, q)
		if got := BenefitWith(ts, q, &sc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (m %d, support %d): BenefitWith = %x, dense %x", trial, m, rows, math.Float64bits(got), math.Float64bits(want))
		}
		if got := Benefit(ts, q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Benefit = %v, dense %v", trial, got, want)
		}
		a := r.Intn(ell)
		post, scratch := PosteriorS(ts, q, a), sc.posterior(ts, q, a)
		for j := range post {
			if math.Float64bits(post[j]) != math.Float64bits(scratch[j]) {
				t.Fatalf("trial %d: PosteriorS %v, scratch posterior %v", trial, post, scratch)
			}
		}
		if len(UpdatedM(ts, q, a)) != rows {
			t.Fatalf("trial %d: UpdatedM has %d rows for a support of %d", trial, len(UpdatedM(ts, q, a)), rows)
		}
	}
}
