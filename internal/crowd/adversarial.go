// Adversarial worker archetypes: the pathological answer distributions the
// paper's honest-but-noisy population never produces. Each archetype is a
// deterministic function of the population seed and the worker's own answer
// history, so a campaign against an adversarial crowd reproduces
// bit-identically under the same seed — the property the accuracy benchmark
// artifacts and the crash-injection suites rely on.
//
// The taxonomy (docs/experiments.md maps each to the paper's evaluation):
//
//	Spammer  — answers uniformly at random over ALL choices, ignoring the
//	           task entirely: expected accuracy 1/ℓ.
//	Sleeper  — answers perfectly for its first SleeperHonest answers (long
//	           enough to ace the golden-task gauntlet and earn a high
//	           quality estimate), then degrades to SleeperQuality.
//	Colluder — members of a clique cast the SAME wrong vote on any shared
//	           task with probability CliqueRate, otherwise answer honestly.
//	           The agreed choice is a pure hash of (clique seed, task), so
//	           members correlate without runtime coordination — safe to
//	           answer from concurrent goroutines.
//	Drift    — honest workers whose accuracy decays per answer given
//	           (fatigue), clamped at DriftFloor.
package crowd

import (
	"fmt"

	"docs/internal/mathx"
	"docs/internal/model"
)

// Archetype classifies a worker's answer behavior.
type Archetype uint8

const (
	// Honest workers follow the paper's answer model: correct with
	// probability q̃·r, otherwise a uniform wrong choice.
	Honest Archetype = iota
	// Spammer workers answer uniformly over all choices.
	Spammer
	// Sleeper workers answer perfectly until profiled, then degrade.
	Sleeper
	// Colluder workers vote with their clique's agreed wrong choice.
	Colluder
)

// String implements fmt.Stringer.
func (a Archetype) String() string {
	switch a {
	case Honest:
		return "honest"
	case Spammer:
		return "spammer"
	case Sleeper:
		return "sleeper"
	case Colluder:
		return "colluder"
	}
	return fmt.Sprintf("archetype(%d)", uint8(a))
}

// Adversarial configures the adversarial slice of a population. The zero
// value is a no-op: populations built without it are bit-identical to those
// built before the field existed. Archetypes are dealt from a random
// permutation drawn with a rand derived from (but distinct from) the
// population seed, so enabling adversaries never perturbs the honest
// workers' hidden quality draws.
type Adversarial struct {
	// SpammerFraction of workers answer uniformly at random (rounded to
	// the nearest worker count).
	SpammerFraction float64
	// SleeperFraction of workers are sleepers.
	SleeperFraction float64
	// SleeperHonest is how many answers a sleeper gives perfectly before
	// degrading (default 20 — the paper's golden-task count, so sleepers
	// ace exactly the profiling gauntlet).
	SleeperHonest int
	// SleeperQuality is the flat correctness probability after the honest
	// phase (default 0.3).
	SleeperQuality float64
	// Cliques is the number of colluding cliques; CliqueSize members each
	// (default size 3). Members vote identically-wrong on shared tasks.
	Cliques    int
	CliqueSize int
	// CliqueRate is the probability a colluder casts the clique vote
	// rather than answering honestly (default 1.0).
	CliqueRate float64
	// DriftPerAnswer is added to every honest (and colluder-fallback)
	// worker's correctness probability per answer already given — negative
	// models fatigue. 0 disables drift.
	DriftPerAnswer float64
	// DriftFloor clamps drifted accuracy from below (default 0.25).
	DriftFloor float64
}

func (a Adversarial) enabled() bool {
	// Any nonzero knob counts (including invalid negatives, so they reach
	// validation instead of being silently ignored).
	return a.SpammerFraction != 0 || a.SleeperFraction != 0 || a.Cliques != 0 ||
		a.DriftPerAnswer != 0
}

func (a Adversarial) withDefaults() Adversarial {
	out := a
	if out.SleeperHonest <= 0 {
		out.SleeperHonest = 20
	}
	if out.SleeperQuality <= 0 {
		out.SleeperQuality = 0.3
	}
	if out.CliqueSize <= 0 {
		out.CliqueSize = 3
	}
	if out.CliqueRate <= 0 {
		out.CliqueRate = 1.0
	}
	if out.DriftFloor <= 0 {
		out.DriftFloor = 0.25
	}
	return out
}

// validate runs after withDefaults, against the population size.
func (a Adversarial) validate(n int) error {
	if a.SpammerFraction < 0 || a.SpammerFraction > 1 {
		return fmt.Errorf("crowd: SpammerFraction %v outside [0,1]", a.SpammerFraction)
	}
	if a.SleeperFraction < 0 || a.SleeperFraction > 1 {
		return fmt.Errorf("crowd: SleeperFraction %v outside [0,1]", a.SleeperFraction)
	}
	if a.SleeperQuality > 1 {
		return fmt.Errorf("crowd: SleeperQuality %v > 1", a.SleeperQuality)
	}
	if a.Cliques < 0 {
		return fmt.Errorf("crowd: Cliques = %d, want >= 0", a.Cliques)
	}
	if a.Cliques > 0 && a.CliqueSize < 2 {
		return fmt.Errorf("crowd: CliqueSize = %d, want >= 2 (a clique of one cannot collude)", a.CliqueSize)
	}
	if a.CliqueRate > 1 {
		return fmt.Errorf("crowd: CliqueRate %v > 1", a.CliqueRate)
	}
	if a.DriftFloor > 1 {
		return fmt.Errorf("crowd: DriftFloor %v > 1", a.DriftFloor)
	}
	total := a.spammers(n) + a.sleepers(n) + a.Cliques*a.CliqueSize
	if total > n {
		return fmt.Errorf("crowd: adversarial roles need %d workers, population has %d", total, n)
	}
	return nil
}

func (a Adversarial) spammers(n int) int {
	return int(a.SpammerFraction*float64(n) + 0.5)
}

func (a Adversarial) sleepers(n int) int {
	return int(a.SleeperFraction*float64(n) + 0.5)
}

// behavior carries the per-worker adversarial parameters. All fields are
// fixed at population time; only the worker's answer counter is mutable.
type behavior struct {
	sleeperHonest  int
	sleeperQuality float64
	cliqueSeed     uint64
	cliqueRate     float64
	driftPerAnswer float64
	driftFloor     float64
}

// splitmix64 is the same finalizer mathx seeds its generators with; used
// here to hash (clique seed, task ID) into an agreed vote with no state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CliqueChoice is the wrong answer a clique agrees on for a task: a pure
// function of the clique seed and the task, so every member computes the
// same vote with no shared mutable state. Exported so stress tests can
// submit the agreed vote directly against the serving core.
func CliqueChoice(cliqueSeed uint64, t *model.Task) int {
	ell := t.NumChoices()
	if ell <= 1 {
		return 0
	}
	wrong := int(splitmix64(cliqueSeed^(uint64(t.ID)+1)) % uint64(ell-1))
	if wrong >= t.Truth {
		wrong++
	}
	return wrong
}

// applyAdversarial deals archetypes onto an already-drawn population using
// a rand derived from the population seed but separate from the draw
// stream, so the honest workers' quality vectors are unchanged versus a
// population built without adversaries.
func applyAdversarial(pop *Population, adv Adversarial, seed uint64) error {
	if !adv.enabled() {
		return nil
	}
	adv = adv.withDefaults()
	n := len(pop.Workers)
	if err := adv.validate(n); err != nil {
		return err
	}
	// Derived seed: distinct from the population-draw stream (^0xc20d) so
	// archetype dealing never perturbs quality draws.
	r := mathx.NewRand(seed ^ 0xad0e)
	perm := r.Perm(n)
	idx := 0
	take := func() *Worker {
		w := pop.Workers[perm[idx]]
		idx++
		return w
	}
	for i := 0; i < adv.spammers(n); i++ {
		take().Archetype = Spammer
	}
	for i := 0; i < adv.sleepers(n); i++ {
		w := take()
		w.Archetype = Sleeper
		w.beh.sleeperHonest = adv.SleeperHonest
		w.beh.sleeperQuality = adv.SleeperQuality
	}
	for c := 0; c < adv.Cliques; c++ {
		cliqueSeed := splitmix64(seed ^ 0x11c0 ^ uint64(c+1))
		for i := 0; i < adv.CliqueSize; i++ {
			w := take()
			w.Archetype = Colluder
			w.Clique = c
			w.beh.cliqueSeed = cliqueSeed
			w.beh.cliqueRate = adv.CliqueRate
		}
	}
	if adv.DriftPerAnswer != 0 {
		for _, w := range pop.Workers {
			w.beh.driftPerAnswer = adv.DriftPerAnswer
			w.beh.driftFloor = adv.DriftFloor
		}
	}
	return nil
}

// Composition counts workers per archetype, for reports and tests.
func (p *Population) Composition() map[Archetype]int {
	out := make(map[Archetype]int)
	for _, w := range p.Workers {
		out[w.Archetype]++
	}
	return out
}
