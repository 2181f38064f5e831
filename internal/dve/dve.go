// Package dve implements Domain Vector Estimation (Section 3 of the paper):
// turning a task's linked entities — each a distribution over candidate
// concepts with per-concept domain indicator vectors — into the task's
// domain vector r^t (Equation 1).
//
// Two evaluators are provided. Compute is the paper's Algorithm 1: an exact
// dynamic program over (numerator, denominator) pairs that reduces the cost
// from exponential O(c^{|E_t|}·|E_t|·m) to polynomial O(c·m²·|E_t|³).
// ComputeEnum is the direct enumeration over all concept linkings, kept as
// the correctness oracle and as the baseline for the Table 3 experiment.
package dve

import (
	"fmt"
	"slices"

	"docs/internal/entitylink"
	"docs/internal/mathx"
)

// Entity is the DVE view of one linked entity e_i: the distribution p_i over
// its candidate concepts and the indicator vector h_{i,j} of each candidate.
type Entity struct {
	// Probs[j] is p_{i,j}, the probability the j-th candidate is the
	// correct link. Must sum to 1.
	Probs []float64
	// H[j] is the indicator vector (size m) of the j-th candidate.
	H [][]float64
}

// Workspace is the memory DVE reuses from task to task: the linker's,
// FromLinked's slices and Compute's integer block, table and result. Its
// zero value is ready; one goroutine uses it at a time.
type Workspace struct {
	link  entitylink.Workspace
	ents  []Entity
	probs []float64
	hs    [][]float64
	ints  []int
	table []float64
	r     []float64
}

// Vector returns Normalized(FromLinked(l.Link(text), m), m), bit for bit,
// building no mention string. The vector is w's own memory, valid until w's
// next call — a caller that keeps it copies it — so a warm workspace
// allocates only the text's normalized copy.
func (w *Workspace) Vector(l *entitylink.Linker, text string, m int) []float64 {
	ents := w.fromLinked(l.LinkInto(&w.link, text), m)
	return mathx.Normalize(w.compute(ents, m))
}

// FromLinked converts linker output into DVE input for a domain set of
// size m. Each H[j] is the knowledge base's own indicator vector for that
// concept, shared by every task that mentions it and read-only; the whole
// conversion is three allocations however many candidates there are.
func FromLinked(ents []entitylink.Entity, m int) []Entity {
	return new(Workspace).fromLinked(ents, m)
}

// fromLinked is FromLinked in w's memory.
func (w *Workspace) fromLinked(ents []entitylink.Entity, m int) []Entity {
	n := 0
	for _, e := range ents {
		n += len(e.Candidates)
	}
	out := slices.Grow(w.ents[:0], len(ents))
	w.probs = slices.Grow(w.probs[:0], n)[:n]
	w.hs = slices.Grow(w.hs[:0], n)[:n]
	probs, hs := w.probs, w.hs
	for _, e := range ents {
		c := len(e.Candidates)
		de := Entity{Probs: probs[:c:c], H: hs[:c:c]}
		probs, hs = probs[c:], hs[c:]
		for j, cand := range e.Candidates {
			de.Probs[j] = cand.Prob
			h := cand.Concept.SharedIndicator()
			if len(h) != m { // a concept no KB holds, or another domain set
				h = cand.Concept.Indicator(m)
			}
			de.H[j] = h
		}
		out = append(out, de)
	}
	w.ents = out
	return out
}

// Validate checks the structural invariants of the DVE input.
func Validate(entities []Entity, m int) error {
	for i, e := range entities {
		if len(e.Probs) == 0 {
			return fmt.Errorf("dve: entity %d has no candidates", i)
		}
		if len(e.Probs) != len(e.H) {
			return fmt.Errorf("dve: entity %d has %d probs but %d indicator vectors", i, len(e.Probs), len(e.H))
		}
		if err := mathx.CheckDistribution(e.Probs, 1e-6); err != nil {
			return fmt.Errorf("dve: entity %d: %w", i, err)
		}
		for j, h := range e.H {
			if len(h) != m {
				return fmt.Errorf("dve: entity %d concept %d indicator has size %d, want %d", i, j, len(h), m)
			}
			for k, x := range h {
				if x != 0 && x != 1 {
					return fmt.Errorf("dve: entity %d concept %d indicator[%d] = %g, want 0 or 1", i, j, k, x)
				}
			}
		}
	}
	return nil
}

// Compute evaluates Equation 1 exactly via Algorithm 1.
//
// For each domain k it runs a dynamic program whose state is the pair
// (nm, dm) = (Σ_i h_{i,π_i,k}, Σ_i Σ_{k'} h_{i,π_i,k'}) reachable after
// linking the first i entities, with the aggregated probability of all
// linkings reaching that state. The k-th element of r^t is then
// Σ over states of (nm/dm)·Pr(state), skipping dm = 0 states exactly as the
// paper does (linkings whose concepts relate to no domain contribute no
// normalized vector). Consequently Σ_k r^t_k may be below 1 by the total
// probability of all-unrelated linkings; see Normalized for the practical
// wrapper.
//
// The program runs only for the domains some candidate relates to. For any
// other domain every state keeps nm = 0, so r^t_k is a sum of zeros: +0,
// which is what the untouched element already holds. With |supp| such
// domains the cost is O(c·|supp|·x_max·|E_t|³) against the paper's
// O(c·m²·|E_t|³), in three allocations whatever m and |E_t| are (none in a
// warm Workspace).
func Compute(entities []Entity, m int) []float64 {
	return new(Workspace).compute(entities, m)
}

// compute is Compute with the integer block, the table and the result in
// w's memory: the vector it returns is overwritten by w's next call.
func (w *Workspace) compute(entities []Entity, m int) []float64 {
	w.r = slices.Grow(w.r[:0], m)[:m]
	r := w.r
	clear(r)
	if len(entities) == 0 {
		return r
	}
	nCand := 0
	for _, e := range entities {
		nCand += len(e.H)
	}
	// One pass over the indicator rows yields everything the program reads
	// of them: x_{i,j} = Σ_k h_{i,j,k} (line 1 of Algorithm 1), each
	// entity's largest x, and which domains have support. All of it, and
	// the column h_{·,·,k} of the domain in hand, lives in one block.
	size := 2*nCand + len(entities) + m
	w.ints = slices.Grow(w.ints[:0], size)[:size]
	ints := w.ints
	clear(ints)
	x, hk := ints[:nCand], ints[nCand:2*nCand]
	entMaxX, supported := ints[2*nCand:2*nCand+len(entities)], ints[2*nCand+len(entities):]
	maxX := 0
	c := 0
	for i, e := range entities {
		for _, h := range e.H {
			for k, v := range h {
				if v != 0 {
					x[c]++
					supported[k] = 1
				}
			}
			if x[c] > entMaxX[i] {
				entMaxX[i] = x[c]
			}
			c++
		}
		if entMaxX[i] > maxX {
			maxX = entMaxX[i]
		}
	}

	// The DP state is the pair (nm, dm) of Algorithm 1's hash-map keys.
	// Both are small bounded integers — nm ≤ |E_t|, dm ≤ max_j x_{i,j}·|E_t|
	// — so a dense table replaces the paper's hash map. Density also makes
	// the float accumulation order fixed; Go map iteration order is random,
	// and summing probabilities in varying order would perturb r^t in the
	// last ulp from run to run, breaking the system's reproducibility.
	nmMax := len(entities) + 1
	dmMax := maxX*len(entities) + 1
	size = nmMax * dmMax // every cell is zeroed before it is read
	w.table = slices.Grow(w.table[:0], 2*size)[:2*size]
	cur, next := w.table[:size], w.table[size:]
	for k := 0; k < m; k++ {
		if supported[k] == 0 {
			continue
		}
		c = 0
		for _, e := range entities {
			for _, h := range e.H {
				hk[c] = 0
				if h[k] != 0 {
					hk[c] = 1
				}
				c++
			}
		}
		for i := range cur {
			cur[i] = 0
		}
		cur[0] = 1 // state (nm=0, dm=0)
		reachNm, reachDm := 0, 0
		c = 0
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
						next[(nm+hk[c+j])*dmMax+dm+x[c+j]] += val * pj
					}
				}
			}
			c += len(e.H)
			cur, next = next, cur
			reachNm++
			reachDm += entMaxX[i]
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

// ComputeEnum evaluates Equation 1 by enumerating every linking π ∈ Ω.
// Cost is O(c^{|E_t|}·|E_t|·m); it exists as the correctness oracle for
// Compute and as the enumeration baseline of Table 3.
func ComputeEnum(entities []Entity, m int) []float64 {
	r := make([]float64, m)
	if len(entities) == 0 {
		return r
	}
	agg := make([]float64, m)
	var rec func(i int, prob float64)
	rec = func(i int, prob float64) {
		if prob == 0 {
			return
		}
		if i == len(entities) {
			var denom float64
			for _, v := range agg {
				denom += v
			}
			if denom == 0 {
				return
			}
			for k := range r {
				r[k] += agg[k] / denom * prob
			}
			return
		}
		e := entities[i]
		for j, pj := range e.Probs {
			for k, v := range e.H[j] {
				agg[k] += v
			}
			rec(i+1, prob*pj)
			for k, v := range e.H[j] {
				agg[k] -= v
			}
		}
	}
	rec(0, 1)
	return r
}

// Normalized returns Compute's result normalized into a proper domain
// vector. If the raw vector has zero mass (every linking is unrelated to
// every domain, or there are no entities), the uniform distribution is
// returned — the system-level convention for "domain unknown", and
// mathx.Normalize's own answer to a zero sum.
func Normalized(entities []Entity, m int) []float64 {
	return mathx.Normalize(Compute(entities, m))
}

// TruncateTopC keeps only the c most probable candidates of each entity,
// renormalizing each distribution; this is the "Top-10 / Top-3" heuristic
// of Table 3.
func TruncateTopC(entities []Entity, c int) []Entity {
	out := make([]Entity, len(entities))
	for i, e := range entities {
		order := mathx.TopK(e.Probs, c)
		te := Entity{
			Probs: make([]float64, 0, len(order)),
			H:     make([][]float64, 0, len(order)),
		}
		for _, j := range order {
			te.Probs = append(te.Probs, e.Probs[j])
			te.H = append(te.H, e.H[j])
		}
		mathx.Normalize(te.Probs)
		out[i] = te
	}
	return out
}
