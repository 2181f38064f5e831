// Package crowd simulates the crowdsourcing platform (Amazon Mechanical
// Turk in the paper). Each simulated worker carries a hidden true quality
// vector q̃^w over the domain set; when asked a task with domain vector r,
// the worker answers correctly with probability Σ_k r_k·q̃_k and otherwise
// picks uniformly among the wrong choices — exactly the answer model DOCS
// assumes (Equation 4 marginalised over the task's true domain), so the
// simulator exercises the same code paths as the paper's AMT deployment.
//
// The package provides worker populations with controllable domain
// expertise structure, HIT batching, arrival sequences, and the
// fixed-redundancy answer collection used in Section 6.1 (each task
// answered by exactly 10 workers).
package crowd

import (
	"fmt"
	"sync/atomic"

	"docs/internal/mathx"
	"docs/internal/model"
)

// DefaultAnswersPerTask is the redundancy the paper collects per task.
const DefaultAnswersPerTask = 10

// Worker is a simulated crowd worker. TrueQ is hidden from inference and
// used only to generate answers and to evaluate calibration (Figure 6).
type Worker struct {
	ID    string
	TrueQ model.QualityVector
	// Archetype is the worker's behavioral class; the zero value (Honest)
	// follows the paper's answer model. Set by NewPopulation when the
	// config carries an Adversarial section.
	Archetype Archetype
	// Clique groups colluders (0-based); meaningful only when Archetype is
	// Colluder.
	Clique int

	// beh holds the archetype's fixed parameters; answered counts the
	// answers this worker has given (drives sleeper phase switches and
	// quality drift). Atomic: stress tests answer from many goroutines.
	beh      behavior
	answered atomic.Int64
}

// Answered reports how many answers the worker has given so far.
func (w *Worker) Answered() int { return int(w.answered.Load()) }

// Answer simulates the worker answering the task. Honest workers are
// correct with probability q̃·r and otherwise pick a uniformly random wrong
// choice; adversarial archetypes override that model (see Archetype). The
// caller supplies the random source so collection order is reproducible.
func (w *Worker) Answer(t *model.Task, r *mathx.Rand) int {
	n := w.answered.Add(1) - 1 // answers given before this one
	switch w.Archetype {
	case Spammer:
		return r.Intn(t.NumChoices())
	case Sleeper:
		if n < int64(w.beh.sleeperHonest) {
			return t.Truth
		}
		return w.answerWithProb(t, w.beh.sleeperQuality, r)
	case Colluder:
		if r.Float64() < w.beh.cliqueRate {
			return CliqueChoice(w.beh.cliqueSeed, t)
		}
	}
	// Honest model (also the colluder's fallback), optionally drifted.
	p := w.TrueQ.Expected(t.Domain)
	if d := w.beh.driftPerAnswer; d != 0 {
		p += d * float64(n)
		if p < w.beh.driftFloor {
			p = w.beh.driftFloor
		}
		if p > 1 {
			p = 1
		}
	}
	return w.answerWithProb(t, p, r)
}

// answerWithProb draws Float64 then (on a miss) Intn(ℓ-1) — the exact
// stream order the pre-adversarial Answer used, so honest populations
// reproduce bit-identical answer sequences.
func (w *Worker) answerWithProb(t *model.Task, p float64, r *mathx.Rand) int {
	if r.Float64() < p {
		return t.Truth
	}
	ell := t.NumChoices()
	wrong := r.Intn(ell - 1)
	if wrong >= t.Truth {
		wrong++
	}
	return wrong
}

// Config describes a worker population.
type Config struct {
	// NumWorkers is the population size.
	NumWorkers int
	// M is the domain-set size (26 for the default KB).
	M int
	// RelevantDomains are the domain indices the workload actually touches
	// (e.g. the 4 mapped Yahoo domains of a dataset). Each worker becomes
	// an expert on a random non-empty subset of them and a novice on the
	// rest. If empty, expertise is spread over all M domains.
	RelevantDomains []int
	// ExpertProb is the chance a worker is expert on any given relevant
	// domain (default 0.5; at least one expert domain is forced).
	ExpertProb float64
	// ExpertQ and NoviceQ are the [lo, hi) quality ranges for expert and
	// novice domains (defaults [0.85,0.97) and [0.45,0.65)).
	ExpertQ, NoviceQ [2]float64
	// DomainBias optionally shifts all workers' quality on specific
	// domains, modelling per-domain difficulty (Figure 6(a) shows e.g.
	// Auto easy, Food hard). Indexed by domain; may be nil.
	DomainBias []float64
	// Adversarial configures spammer/sleeper/colluder/drift archetypes.
	// The zero value is a no-op: populations are bit-identical to ones
	// drawn before the field existed.
	Adversarial Adversarial
	// Seed drives the population draw.
	Seed uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.ExpertProb <= 0 {
		out.ExpertProb = 0.5
	}
	if out.ExpertQ == [2]float64{} {
		out.ExpertQ = [2]float64{0.85, 0.97}
	}
	if out.NoviceQ == [2]float64{} {
		out.NoviceQ = [2]float64{0.45, 0.65}
	}
	return out
}

// Population is a set of simulated workers plus the platform's random
// source for arrivals and answers.
type Population struct {
	Workers []*Worker
	rand    *mathx.Rand
}

// NewPopulation draws a worker population from the config.
func NewPopulation(cfg Config) (*Population, error) {
	if cfg.NumWorkers <= 0 {
		return nil, fmt.Errorf("crowd: NumWorkers = %d, want > 0", cfg.NumWorkers)
	}
	if cfg.M <= 0 {
		return nil, fmt.Errorf("crowd: M = %d, want > 0", cfg.M)
	}
	for _, d := range cfg.RelevantDomains {
		if d < 0 || d >= cfg.M {
			return nil, fmt.Errorf("crowd: relevant domain %d out of range [0,%d)", d, cfg.M)
		}
	}
	c := cfg.withDefaults()
	r := mathx.NewRand(c.Seed ^ 0xc20d)
	relevant := c.RelevantDomains
	if len(relevant) == 0 {
		relevant = make([]int, c.M)
		for i := range relevant {
			relevant[i] = i
		}
	}
	pop := &Population{rand: r}
	for i := 0; i < c.NumWorkers; i++ {
		w := &Worker{
			ID:    fmt.Sprintf("w%03d", i),
			TrueQ: make(model.QualityVector, c.M),
		}
		// A draw that once picked coin-flip workers; kept so every
		// population stays bit-identical to the ones drawn with it.
		_ = r.Float64()
		for k := 0; k < c.M; k++ {
			w.TrueQ[k] = r.Range(c.NoviceQ[0], c.NoviceQ[1])
		}
		expertAny := false
		for _, k := range relevant {
			if r.Float64() < c.ExpertProb {
				w.TrueQ[k] = r.Range(c.ExpertQ[0], c.ExpertQ[1])
				expertAny = true
			}
		}
		if !expertAny {
			k := relevant[r.Intn(len(relevant))]
			w.TrueQ[k] = r.Range(c.ExpertQ[0], c.ExpertQ[1])
		}
		if c.DomainBias != nil {
			for k := 0; k < c.M && k < len(c.DomainBias); k++ {
				w.TrueQ[k] = clamp01(w.TrueQ[k] + c.DomainBias[k])
			}
		}
		pop.Workers = append(pop.Workers, w)
	}
	// Archetypes are dealt after the full draw, from a separately-derived
	// rand: enabling adversaries never shifts the honest quality stream.
	if err := applyAdversarial(pop, c.Adversarial, c.Seed); err != nil {
		return nil, err
	}
	return pop, nil
}

// Arrival returns a uniformly random worker (the platform's "a worker
// comes" event).
func (p *Population) Arrival() *Worker {
	return p.Workers[p.rand.Intn(len(p.Workers))]
}

// Rand exposes the platform's random source so collection helpers and
// experiments share one reproducible stream.
func (p *Population) Rand() *mathx.Rand { return p.rand }

// Collect assigns every task to exactly perTask distinct workers (the
// paper's fixed-redundancy collection) and returns the answers. Tasks must
// already carry domain vectors.
func Collect(tasks []*model.Task, pop *Population, perTask int) (*model.AnswerSet, error) {
	if perTask > len(pop.Workers) {
		return nil, fmt.Errorf("crowd: perTask %d exceeds population %d", perTask, len(pop.Workers))
	}
	as := model.NewAnswerSet()
	for _, t := range tasks {
		if t.Domain == nil {
			return nil, fmt.Errorf("crowd: task %d has no domain vector", t.ID)
		}
		perm := pop.rand.Perm(len(pop.Workers))
		for _, wi := range perm[:perTask] {
			w := pop.Workers[wi]
			if err := as.Add(model.Answer{Worker: w.ID, Task: t.ID, Choice: w.Answer(t, pop.rand)}); err != nil {
				return nil, err
			}
		}
	}
	return as, nil
}

// AnswerGolden simulates every worker in the population answering all
// golden tasks, returning per-worker answer lists for quality
// initialization (Section 5.2).
func AnswerGolden(golden []*model.Task, pop *Population) map[string][]model.Answer {
	out := make(map[string][]model.Answer, len(pop.Workers))
	for _, w := range pop.Workers {
		for _, g := range golden {
			out[w.ID] = append(out[w.ID], model.Answer{
				Worker: w.ID, Task: g.ID, Choice: w.Answer(g, pop.rand),
			})
		}
	}
	return out
}

// TrueQualities returns the hidden quality vectors keyed by worker ID, for
// calibration studies (Figure 6).
func (p *Population) TrueQualities() map[string]model.QualityVector {
	out := make(map[string]model.QualityVector, len(p.Workers))
	for _, w := range p.Workers {
		q := make(model.QualityVector, len(w.TrueQ))
		copy(q, w.TrueQ)
		out[w.ID] = q
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
