package dve

import (
	"fmt"
	"math"
	"testing"

	"docs/internal/dataset"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/mathx"
)

// computeReference is Compute exactly as it stood before the support-only
// flat kernel replaced it (PR 22): x_{i,j} in one slice per entity, the
// program run for every one of the m domains, each transition reading its
// indicator row. It is kept verbatim as the oracle
// TestPropertyComputeMatchesReference holds Compute to, bit for bit.
func computeReference(entities []Entity, m int) []float64 {
	r := make([]float64, m)
	if len(entities) == 0 {
		return r
	}
	// Pre-compute x_{i,j} = Σ_k h_{i,j,k} (line 1 of Algorithm 1).
	x := make([][]int, len(entities))
	maxX := 0
	for i, e := range entities {
		x[i] = make([]int, len(e.H))
		for j, h := range e.H {
			s := 0
			for _, v := range h {
				if v != 0 {
					s++
				}
			}
			x[i][j] = s
			if s > maxX {
				maxX = s
			}
		}
	}

	nmMax := len(entities) + 1
	dmMax := maxX*len(entities) + 1
	cur := make([]float64, nmMax*dmMax)
	next := make([]float64, nmMax*dmMax)
	for k := 0; k < m; k++ {
		for i := range cur {
			cur[i] = 0
		}
		cur[0] = 1 // state (nm=0, dm=0)
		reachNm, reachDm := 0, 0
		for i, e := range entities {
			for j := range next[:(reachNm+2)*dmMax] {
				next[j] = 0
			}
			for nm := 0; nm <= reachNm; nm++ {
				base := nm * dmMax
				for dm := 0; dm <= reachDm; dm++ {
					val := cur[base+dm]
					if val == 0 {
						continue
					}
					for j, pj := range e.Probs {
						hk := 0
						if e.H[j][k] != 0 {
							hk = 1
						}
						next[(nm+hk)*dmMax+dm+x[i][j]] += val * pj
					}
				}
			}
			cur, next = next, cur
			reachNm++
			reachDm += maxXOfReference(x[i])
			if reachNm >= nmMax {
				reachNm = nmMax - 1
			}
			if reachDm >= dmMax {
				reachDm = dmMax - 1
			}
		}
		var rk float64
		for nm := 0; nm <= reachNm; nm++ {
			base := nm * dmMax
			for dm := 1; dm <= reachDm; dm++ {
				if val := cur[base+dm]; val != 0 {
					rk += float64(nm) / float64(dm) * val
				}
			}
		}
		r[k] = rk
	}
	return r
}

func maxXOfReference(xs []int) int {
	max := 0
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	return max
}

// fromLinkedReference is FromLinked as it stood before it shared the
// knowledge base's indicator vectors: a fresh m-vector per candidate.
func fromLinkedReference(ents []entitylink.Entity, m int) []Entity {
	out := make([]Entity, 0, len(ents))
	for _, e := range ents {
		de := Entity{
			Probs: make([]float64, len(e.Candidates)),
			H:     make([][]float64, len(e.Candidates)),
		}
		for j, c := range e.Candidates {
			de.Probs[j] = c.Prob
			de.H[j] = c.Concept.Indicator(m)
		}
		out = append(out, de)
	}
	return out
}

func bitsDiff(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d elements, reference %d", len(got), len(want))
	}
	for k := range want {
		if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
			return fmt.Sprintf("element %d = %x (%g), reference %x (%g)", k, g, got[k], w, want[k])
		}
	}
	return ""
}

// genEntities draws one Compute input: nEnt entities of 1–20 candidates,
// each candidate a concept related to 1–4 of the m domains or — one time in
// six — to none. Related domains are drawn from the first `spread` domains
// only, so most of a wide domain set goes unsupported, as it does for a real
// task.
func genEntities(r *mathx.Rand, nEnt, m int) []Entity {
	spread := 1 + r.Intn(m)
	ents := make([]Entity, nEnt)
	for i := range ents {
		c := 1 + r.Intn(20)
		e := Entity{Probs: r.Dirichlet(c, 0.5+r.Float64()), H: make([][]float64, c)}
		for j := range e.H {
			h := make([]float64, m)
			if r.Intn(6) != 0 {
				for n := 1 + r.Intn(4); n > 0; n-- {
					h[r.Intn(spread)] = 1
				}
			}
			e.H[j] = h
		}
		ents[i] = e
	}
	return ents
}

// TestPropertyComputeMatchesReference holds Compute to computeReference at
// Float64bits on seeded random inputs — 0 to 6 entities, m of 1, 3 and 26 —
// and, wherever enumeration is affordable, to ComputeEnum within 1e-12.
func TestPropertyComputeMatchesReference(t *testing.T) {
	r := mathx.NewRand(22)
	enumerated := 0
	for cse := 0; cse < 600; cse++ {
		m := []int{1, 3, 26}[cse%3]
		ents := genEntities(r, r.Intn(7), m)
		got := Compute(ents, m)
		if d := bitsDiff(got, computeReference(ents, m)); d != "" {
			t.Fatalf("case %d (%d entities, m = %d): %s", cse, len(ents), m, d)
		}
		if d := bitsDiff(Normalized(ents, m), normalizedReference(ents, m)); d != "" {
			t.Fatalf("case %d (%d entities, m = %d): Normalized: %s", cse, len(ents), m, d)
		}
		linkings := 1
		for _, e := range ents {
			if linkings *= len(e.Probs); linkings > 50000 {
				break
			}
		}
		if linkings > 50000 {
			continue
		}
		enumerated++
		for k, v := range ComputeEnum(ents, m) {
			if math.Abs(got[k]-v) > 1e-12 {
				t.Fatalf("case %d domain %d: Compute %g, ComputeEnum %g", cse, k, got[k], v)
			}
		}
	}
	if enumerated < 200 {
		t.Errorf("only %d of 600 cases were small enough to enumerate", enumerated)
	}
}

func normalizedReference(entities []Entity, m int) []float64 {
	r := computeReference(entities, m)
	if mathx.Sum(r) == 0 {
		return mathx.Uniform(m)
	}
	return mathx.Normalize(r)
}

// TestPropertyPublishPathMatchesReference runs the whole publish-time path
// over every task text of the four datasets: the domain vector through
// FromLinked's shared indicators and the support-only program must be, bit
// for bit, the one the dense path computes.
func TestPropertyPublishPathMatchesReference(t *testing.T) {
	k := kb.MustDefault()
	m := k.Domains().Size()
	l := entitylink.New(k)
	for seed := uint64(1); seed <= 5; seed++ {
		for _, ds := range dataset.All(seed) {
			for _, task := range ds.Tasks {
				linked := l.Link(task.Text)
				got := Normalized(FromLinked(linked, m), m)
				if d := bitsDiff(got, normalizedReference(fromLinkedReference(linked, m), m)); d != "" {
					t.Fatalf("%s seed %d, %q: %s", ds.Name, seed, task.Text, d)
				}
			}
		}
	}
	// A concept no KB holds, and a domain set other than its KB's, fall
	// back to a fresh indicator of the size asked for.
	loose := []entitylink.Entity{{Candidates: []entitylink.Candidate{
		{Concept: &kb.Concept{ID: "x", Domains: []int{1}}, Prob: 0.5},
		{Concept: k.Concept("person/kobe_bryant"), Prob: 0.5},
	}}}
	for _, size := range []int{3, m} {
		for j, h := range FromLinked(loose, size)[0].H {
			if d := bitsDiff(h, loose[0].Candidates[j].Concept.Indicator(size)); d != "" {
				t.Errorf("m = %d candidate %d indicator: %s", size, j, d)
			}
		}
	}
}
