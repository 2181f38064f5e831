package truth

import (
	"fmt"

	"docs/internal/model"
)

// Stats is the pair of statistics DOCS persists per worker (Section 4.2):
// the quality vector q^w and its weight vector u^w, where u^w_k is the
// expected number of tasks the worker answered that relate to domain k
// (Σ_{t_i ∈ T(w)} r^{t_i}_k). The weight makes qualities mergeable across
// requester sessions (Theorem 1).
type Stats struct {
	Q model.QualityVector `json:"q"`
	U []float64           `json:"u"`
}

// NewStats returns zero-weight stats of size m with the default prior
// quality.
func NewStats(m int) *Stats {
	s := &Stats{Q: make(model.QualityVector, m), U: make([]float64, m)}
	for k := range s.Q {
		s.Q[k] = DefaultQuality
	}
	return s
}

// Validate checks the structural invariants of the stats.
func (s *Stats) Validate(m int) error {
	if err := s.Q.Validate(m); err != nil {
		return err
	}
	if len(s.U) != m {
		return fmt.Errorf("truth: stats weight has size %d, want %d", len(s.U), m)
	}
	for k, u := range s.U {
		if u < 0 || u != u {
			//docs:allow floatbits error text is human-facing; never encoded or digested
			return fmt.Errorf("truth: stats weight[%d] = %g is negative", k, u)
		}
	}
	return nil
}

// Merge folds newly computed session statistics into the stored ones per
// Theorem 1: q̂_k ← (q̂_k·û_k + q_k·u_k)/(û_k + u_k) and û_k ← û_k + u_k.
// Domains with zero combined weight keep the stored quality.
func (s *Stats) Merge(session *Stats) {
	for k := range s.Q {
		total := s.U[k] + session.U[k]
		if total > 0 {
			s.Q[k] = (s.Q[k]*s.U[k] + session.Q[k]*session.U[k]) / total
		}
		s.U[k] = total
	}
}

// Clone returns a deep copy.
func (s *Stats) Clone() *Stats {
	c := &Stats{Q: make(model.QualityVector, len(s.Q)), U: make([]float64, len(s.U))}
	copy(c.Q, s.Q)
	copy(c.U, s.U)
	return c
}

// SessionStats derives per-worker (q, u) statistics from a finished
// inference Result over the given tasks — the tasks InferIndex inferred it
// over, or a prefix of them, with the index it read or that index's Head — ready
// to be merged into stored stats via Theorem 1: one per worker of
// answers.Workers(), in its order, all carved from one allocation. An
// answer to a task past the prefix counts for nothing. For each worker, u_k = Σ_{t∈T(w)} r_k
// and q_k = Σ r_k·s_{i,v^w_i} / u_k (Equation 5 restricted to this session).
func SessionStats(tasks []Row, answers *model.LogIndex, res *Result, m int) []Stats {
	row := res.row
	out := make([]Stats, len(answers.Workers()))
	slab := make([]float64, 2*len(out)*m)
	num := make([]float64, m)
	for wi := range out {
		st := &out[wi]
		st.Q, st.U = slab[:m:m], slab[m:2*m:2*m]
		slab = slab[2*m:]
		clear(num)
		for _, p := range answers.ForWorker(wi) {
			i := int(row[p])
			if i < 0 || i >= len(tasks) {
				continue
			}
			r := tasks[i].R
			sa := res.S[i][answers.Choice(p)]
			for k, rk := range r {
				if r.Has(k) {
					num[k] += rk * sa
					st.U[k] += rk
				}
			}
		}
		for k := 0; k < m; k++ {
			if st.U[k] > 0 {
				st.Q[k] = num[k] / st.U[k]
			} else {
				st.Q[k] = DefaultQuality
			}
		}
	}
	return out
}
