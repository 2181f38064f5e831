package truth

import (
	"fmt"
	"math"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// Property-based suite for the batch truth-inference algorithm. Three
// families of randomized campaigns (~200 cases total, fixed seeds) pin
// structural invariants a refactor must not break:
//
//   - permutation invariance: the answer log's order is bookkeeping, not
//     evidence — shuffling it leaves every inferred truth unchanged and
//     every probability equal to within float-reassociation noise;
//   - label-renaming equivariance: choice labels carry no information —
//     permuting each task's choices permutes the probabilistic truths the
//     same way and leaves worker qualities untouched;
//   - quality monotonicity: the Step-2 estimate is exactly the
//     domain-weighted average of s_i over a worker's chosen options, so a
//     worker whose choices dominate another's (same task set, at least as
//     much probability on every pick) can never score a lower quality, and
//     workers in clearly separated accuracy tiers rank accordingly.

// propCampaign is one randomized campaign: tasks with domain vectors,
// workers with planted accuracies, and a generated answer log.
type propCampaign struct {
	tasks   []*model.Task
	m       int
	answers []model.Answer
	planted []int              // planted ground truth per task index
	acc     map[string]float64 // planted accuracy per worker
}

// genCampaign draws a campaign: 4–10 tasks over m=6 domains (one- or
// two-hot vectors), 2–4 choices each, 3–7 workers with accuracies in
// [0.40, 0.95] answering ~80% of tasks.
func genCampaign(r *mathx.Rand) *propCampaign {
	const m = 6
	c := &propCampaign{m: m, acc: make(map[string]float64)}
	nTasks := 4 + r.Intn(7)
	for i := 0; i < nTasks; i++ {
		ell := 2 + r.Intn(3)
		dom := make(model.DomainVector, m)
		if r.Float64() < 0.5 {
			dom[r.Intn(m)] = 1
		} else {
			a, b := r.Intn(m), r.Intn(m)
			w := 0.2 + 0.6*r.Float64()
			dom[a] += w
			dom[b] += 1 - w
		}
		choices := make([]string, ell)
		for j := range choices {
			choices[j] = fmt.Sprintf("c%d", j)
		}
		c.tasks = append(c.tasks, &model.Task{
			ID: i, Text: fmt.Sprintf("task %d", i), Choices: choices,
			Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth,
		})
		c.planted = append(c.planted, r.Intn(ell))
	}
	nWorkers := 3 + r.Intn(5)
	for w := 0; w < nWorkers; w++ {
		id := fmt.Sprintf("w%d", w)
		c.acc[id] = 0.40 + 0.55*r.Float64()
		c.answerAll(r, id, 0.8)
	}
	return c
}

// answerAll makes the worker answer each task with probability pAnswer,
// correct (vs the planted truth) with their planted accuracy.
func (c *propCampaign) answerAll(r *mathx.Rand, id string, pAnswer float64) {
	for i, t := range c.tasks {
		if r.Float64() >= pAnswer {
			continue
		}
		choice := c.planted[i]
		if r.Float64() >= c.acc[id] {
			wrong := r.Intn(t.NumChoices() - 1)
			if wrong >= choice {
				wrong++
			}
			choice = wrong
		}
		c.answers = append(c.answers, model.Answer{Worker: id, Task: t.ID, Choice: choice})
	}
}

func buildSet(t *testing.T, answers []model.Answer) *model.AnswerSet {
	t.Helper()
	as := model.NewAnswerSet()
	for _, a := range answers {
		if err := as.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// fixedIter forces an exact iteration count so two runs being compared can
// never diverge by one early stop flipping on an ulp of the convergence
// metric.
var fixedIter = Options{MaxIter: 12, Epsilon: -1}

const propTol = 1e-9

func absDiff(a, b float64) float64 { return math.Abs(a - b) }

// TestPropertyPermutationInvariance: shuffling the answer log must not
// change inference. 80 randomized campaigns, each compared against a
// shuffled twin.
func TestPropertyPermutationInvariance(t *testing.T) {
	r := mathx.NewRand(101)
	for cse := 0; cse < 80; cse++ {
		c := genCampaign(r)
		if len(c.answers) == 0 {
			continue
		}
		resA, err := Infer(c.tasks, buildSet(t, c.answers), c.m, fixedIter)
		if err != nil {
			t.Fatal(err)
		}
		shuffled := append([]model.Answer(nil), c.answers...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		resB, err := Infer(c.tasks, buildSet(t, shuffled), c.m, fixedIter)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.tasks {
			for j := range resA.S[i] {
				if absDiff(resA.S[i][j], resB.S[i][j]) > propTol {
					t.Fatalf("case %d task %d choice %d: S %v vs %v under permutation",
						cse, i, j, resA.S[i][j], resB.S[i][j])
				}
			}
			// The argmax may only differ where the top two probabilities sit
			// inside the comparison tolerance of each other.
			if resA.Truth[i] != resB.Truth[i] {
				if gap := topTwoGap(resA.S[i]); gap > 1e-7 {
					t.Fatalf("case %d task %d: truth %d vs %d under permutation (gap %v)",
						cse, i, resA.Truth[i], resB.Truth[i], gap)
				}
			}
		}
		for w, qa := range resA.Quality {
			qb := resB.Quality[w]
			for k := range qa {
				if absDiff(qa[k], qb[k]) > propTol {
					t.Fatalf("case %d worker %s domain %d: quality %v vs %v under permutation",
						cse, w, k, qa[k], qb[k])
				}
			}
		}
	}
}

func topTwoGap(s []float64) float64 {
	best, second := math.Inf(-1), math.Inf(-1)
	for _, x := range s {
		if x > best {
			best, second = x, best
		} else if x > second {
			second = x
		}
	}
	return best - second
}

// TestPropertyLabelRenamingEquivariance: permuting each task's choice
// labels (and remapping answers and pinned truths accordingly) must
// permute the probabilistic truths the same way and leave worker
// qualities unchanged. 60 randomized campaigns, half with pinned tasks.
func TestPropertyLabelRenamingEquivariance(t *testing.T) {
	r := mathx.NewRand(202)
	for cse := 0; cse < 60; cse++ {
		c := genCampaign(r)
		if len(c.answers) == 0 {
			continue
		}
		optsA := fixedIter
		if cse%2 == 1 {
			optsA.Pinned = []Pin{{P: 0, Truth: int32(c.planted[0])}}
		}

		// Per-task choice permutations: sigma[i][j] is the new index of
		// task i's old choice j.
		sigma := make([][]int, len(c.tasks))
		tasksB := make([]*model.Task, len(c.tasks))
		for i, tk := range c.tasks {
			ell := tk.NumChoices()
			sigma[i] = r.Perm(ell)
			choices := make([]string, ell)
			for j, name := range tk.Choices {
				choices[sigma[i][j]] = name
			}
			tasksB[i] = &model.Task{
				ID: tk.ID, Text: tk.Text, Choices: choices,
				Domain: tk.Domain, Truth: model.NoTruth, TrueDomain: model.NoTruth,
			}
		}
		renamed := make([]model.Answer, len(c.answers))
		for n, a := range c.answers {
			renamed[n] = model.Answer{Worker: a.Worker, Task: a.Task, Choice: sigma[a.Task][a.Choice]}
		}
		optsB := fixedIter
		if optsA.Pinned != nil {
			optsB.Pinned = []Pin{{P: 0, Truth: int32(sigma[0][c.planted[0]])}}
		}

		resA, err := Infer(c.tasks, buildSet(t, c.answers), c.m, optsA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := Infer(tasksB, buildSet(t, renamed), c.m, optsB)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.tasks {
			for j := range resA.S[i] {
				if absDiff(resA.S[i][j], resB.S[i][sigma[i][j]]) > propTol {
					t.Fatalf("case %d task %d: S[%d]=%v but renamed S[%d]=%v",
						cse, i, j, resA.S[i][j], sigma[i][j], resB.S[i][sigma[i][j]])
				}
			}
			if want := sigma[i][resA.Truth[i]]; resB.Truth[i] != want {
				if gap := topTwoGap(resA.S[i]); gap > 1e-7 {
					t.Fatalf("case %d task %d: renamed truth %d, want %d (gap %v)",
						cse, i, resB.Truth[i], want, gap)
				}
			}
		}
		for w, qa := range resA.Quality {
			qb := resB.Quality[w]
			for k := range qa {
				if absDiff(qa[k], qb[k]) > propTol {
					t.Fatalf("case %d worker %s domain %d: quality %v changed to %v under renaming",
						cse, w, k, qa[k], qb[k])
				}
			}
		}
	}
}

// TestPropertyQualityMonotoneInAgreement: 60 randomized campaigns carrying
// two designed extra workers — "good" always answers the planted truth,
// "bad" always answers wrong — answering every task. Three checks per
// campaign:
//
//  1. the Step-2 identity: every returned quality equals the
//     domain-weighted average of final s_i over the worker's choices;
//  2. dominance: for worker pairs with the same task set where one's
//     choices carry at least as much final probability on every task,
//     quality dominates domain by domain;
//  3. tier ordering: the always-right worker's mean quality over active
//     domains beats the always-wrong worker's.
func TestPropertyQualityMonotoneInAgreement(t *testing.T) {
	r := mathx.NewRand(303)
	for cse := 0; cse < 60; cse++ {
		c := genCampaign(r)
		c.acc["good"] = 1.0
		c.answerAll(r, "good", 1.0)
		c.acc["bad"] = 0.0
		c.answerAll(r, "bad", 1.0)
		as := buildSet(t, c.answers)
		res, err := Infer(c.tasks, as, c.m, fixedIter)
		if err != nil {
			t.Fatal(err)
		}
		pos := make(map[int]int, len(c.tasks))
		for i, tk := range c.tasks {
			pos[tk.ID] = i
		}

		// 1. Step-2 identity, recomputed from the returned S.
		for w, q := range res.Quality {
			num := make([]float64, c.m)
			den := make([]float64, c.m)
			for _, a := range as.ForWorker(w) {
				i := pos[a.Task]
				for k := 0; k < c.m; k++ {
					num[k] += c.tasks[i].Domain[k] * res.S[i][a.Choice]
					den[k] += c.tasks[i].Domain[k]
				}
			}
			for k := 0; k < c.m; k++ {
				if den[k] == 0 {
					continue
				}
				if absDiff(q[k], num[k]/den[k]) > 1e-12 {
					t.Fatalf("case %d worker %s domain %d: quality %v, Step-2 identity gives %v",
						cse, w, k, q[k], num[k]/den[k])
				}
			}
		}

		// 2. Dominance between workers sharing a task set.
		workers := as.Workers()
		for _, v := range workers {
			for _, w := range workers {
				if v == w {
					continue
				}
				va, wa := as.ForWorker(v), as.ForWorker(w)
				if !sameTaskSet(va, wa) {
					continue
				}
				wChoice := make(map[int]int, len(wa))
				for _, a := range wa {
					wChoice[a.Task] = a.Choice
				}
				dominates := true
				for _, a := range va {
					i := pos[a.Task]
					if res.S[i][a.Choice] < res.S[i][wChoice[a.Task]] {
						dominates = false
						break
					}
				}
				if !dominates {
					continue
				}
				qv, qw := res.Quality[v], res.Quality[w]
				den := activeDomains(va, pos, c.tasks, c.m)
				for k := range den {
					if qv[k] < qw[k]-1e-12 {
						t.Fatalf("case %d: worker %s dominates %s per task but quality[%d] %v < %v",
							cse, v, w, k, qv[k], qw[k])
					}
				}
			}
		}

		// 3. Tier ordering of the designed workers over active domains.
		good, bad := res.Quality["good"], res.Quality["bad"]
		den := activeDomains(as.ForWorker("good"), pos, c.tasks, c.m)
		var gMean, bMean float64
		for k := range den {
			gMean += good[k]
			bMean += bad[k]
		}
		if n := float64(len(den)); n > 0 {
			gMean, bMean = gMean/n, bMean/n
		}
		if gMean <= bMean {
			t.Fatalf("case %d: always-right worker mean quality %v <= always-wrong %v", cse, gMean, bMean)
		}
	}
}

// sameTaskSet reports whether two answer slices cover exactly the same
// tasks.
func sameTaskSet(a, b []model.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x.Task] = true
	}
	for _, x := range b {
		if !set[x.Task] {
			return false
		}
	}
	return true
}

// activeDomains returns the set of domains with positive answer weight for
// the given answers.
func activeDomains(answers []model.Answer, pos map[int]int, tasks []*model.Task, m int) map[int]bool {
	out := make(map[int]bool)
	for _, a := range answers {
		for k := 0; k < m; k++ {
			if tasks[pos[a.Task]].Domain[k] > 0 {
				out[k] = true
			}
		}
	}
	return out
}
