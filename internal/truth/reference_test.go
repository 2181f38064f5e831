package truth

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// inferReference is the iterative TI exactly as it stood before the flat
// kernel replaced it (PR 20): one fresh matrix per task per iteration, worker
// qualities in a map, two math.Log calls per (answer, domain). It is dense —
// every task gets all m rows of M, the zero-weight ones included — and is
// kept verbatim as the oracle TestPropertyInferMatchesReference holds Infer
// to, bit for bit: row x of Infer's M is row supp[x] of this one's. The way
// assignScan is the indexed assigner's oracle.
func inferReference(tasks []*model.Task, answers *model.AnswerSet, m int, opt Options) (*Result, error) {
	if opt.MaxIter <= 0 {
		opt.MaxIter = DefaultMaxIter
	}
	if opt.Epsilon == 0 {
		opt.Epsilon = DefaultEpsilon
	}
	pos := make(map[int]int, len(tasks)) // task ID -> slice index
	for idx, t := range tasks {
		if t.Domain == nil {
			return nil, fmt.Errorf("truth: task %d has no domain vector (run DVE first)", t.ID)
		}
		if err := t.Validate(m); err != nil {
			return nil, err
		}
		if _, dup := pos[t.ID]; dup {
			return nil, fmt.Errorf("truth: duplicate task ID %d", t.ID)
		}
		pos[t.ID] = idx
	}
	for _, id := range answers.Tasks() {
		if _, ok := pos[id]; !ok {
			return nil, fmt.Errorf("truth: answers reference unknown task %d", id)
		}
		for _, a := range answers.ForTask(id) {
			if ell := len(tasks[pos[id]].Choices); a.Choice < 0 || a.Choice >= ell {
				return nil, fmt.Errorf("truth: worker %q chose %d on task %d with %d choices", a.Worker, a.Choice, id, ell)
			}
		}
	}

	// Initialize worker qualities. Workers are processed in sorted order
	// everywhere below: map iteration order would otherwise reorder the
	// floating-point accumulation in the convergence metric and make runs
	// differ in the last ulp — enough to flip an early stop and change
	// downstream assignment decisions.
	workers := answers.Workers()
	sort.Strings(workers)
	quality := make(map[string]model.QualityVector)
	for _, w := range workers {
		if init, ok := opt.InitQuality[w]; ok {
			q := make(model.QualityVector, m)
			copy(q, init)
			quality[w] = q
		} else {
			q := make(model.QualityVector, m)
			for k := range q {
				q[k] = DefaultQuality
			}
			quality[w] = q
		}
	}

	// Validate pinned truths in the order given, by position: a task's index
	// in tasks.
	pinned := make(map[int]int, len(opt.Pinned)) // task index -> truth
	for _, pin := range opt.Pinned {
		i := int(pin.P)
		if i < 0 || i >= len(tasks) {
			return nil, fmt.Errorf("truth: pinned truth for unknown task position %d", pin.P)
		}
		if pin.Truth < 0 || int(pin.Truth) >= tasks[i].NumChoices() {
			return nil, fmt.Errorf("truth: pinned truth %d out of range for task %d", pin.Truth, tasks[i].ID)
		}
		pinned[i] = int(pin.Truth)
	}

	res := &Result{
		S:       make([][]float64, len(tasks)),
		M:       make([][][]float64, len(tasks)),
		Truth:   make([]int, len(tasks)),
		Quality: quality,
	}
	for i, t := range tasks {
		if pv, ok := pinned[i]; ok {
			res.S[i] = oneHot(t.NumChoices(), pv)
			continue
		}
		res.S[i] = mathx.Uniform(t.NumChoices())
	}

	prevS := make([][]float64, len(tasks))
	for iter := 0; iter < opt.MaxIter; iter++ {
		for i := range res.S {
			prevS[i] = mathx.Clone(res.S[i])
		}
		prevQ := cloneQuality(quality)

		// Step 1: q^w → s_i. Pinned (golden) tasks keep their one-hot truth.
		for i, t := range tasks {
			if pv, ok := pinned[i]; ok {
				res.M[i] = pinnedMatrix(m, t.NumChoices(), pv)
				res.S[i] = oneHot(t.NumChoices(), pv)
				continue
			}
			v := answers.ForTask(t.ID)
			if len(v) == 0 {
				res.M[i] = uniformMatrix(m, t.NumChoices())
				res.S[i] = mathx.Uniform(t.NumChoices())
				continue
			}
			M := truthMatrixReference(t, v, quality, m)
			res.M[i] = M
			res.S[i] = applyDomainReference(t.Domain, M)
		}

		// Step 2: s_i → q^w.
		for _, w := range workers {
			q := quality[w]
			num := make([]float64, m)
			den := make([]float64, m)
			for _, a := range answers.ForWorker(w) {
				i := pos[a.Task]
				r := tasks[i].Domain
				si := res.S[i]
				for k := 0; k < m; k++ {
					num[k] += r[k] * si[a.Choice]
					den[k] += r[k]
				}
			}
			for k := 0; k < m; k++ {
				if den[k] > 0 {
					q[k] = num[k] / den[k]
				}
				// Domains the worker never touched keep their previous value
				// (the paper's maintenance keeps them at the stored prior).
			}
		}

		res.Iterations = iter + 1
		delta := paramDeltaReference(res.S, prevS, workers, quality, prevQ, m)
		if opt.RecordDeltas {
			res.Deltas = append(res.Deltas, delta)
		}
		if delta < opt.Epsilon {
			break
		}
	}

	for i := range res.S {
		res.Truth[i] = mathx.ArgMax(res.S[i])
	}
	return res, nil
}

// truthMatrixReference computes M^(i) (Equations 3–4) for a task: row k is the truth
// distribution conditioned on the task's true domain being k. Likelihoods
// are accumulated in log space so large answer sets cannot underflow.
func truthMatrixReference(t *model.Task, v []model.Answer, quality map[string]model.QualityVector, m int) [][]float64 {
	ell := t.NumChoices()
	M := make([][]float64, m)
	logRow := make([]float64, ell)
	for k := 0; k < m; k++ {
		for j := range logRow {
			logRow[j] = 0
		}
		for _, a := range v {
			qk := clampQ(quality[a.Worker][k])
			logCorrect := math.Log(qk)
			logWrong := math.Log((1 - qk) / float64(ell-1))
			for j := 0; j < ell; j++ {
				if a.Choice == j {
					logRow[j] += logCorrect
				} else {
					logRow[j] += logWrong
				}
			}
		}
		M[k] = softmaxReference(logRow)
	}
	return M
}

// applyDomainReference computes s = r × M (Equation 2).
func applyDomainReference(r model.DomainVector, M [][]float64) []float64 {
	ell := len(M[0])
	s := make([]float64, ell)
	for k, row := range M {
		rk := r[k]
		if rk == 0 {
			continue
		}
		for j := 0; j < ell; j++ {
			s[j] += rk * row[j]
		}
	}
	return mathx.Normalize(s)
}

// softmaxReference exponentiates and normalizes a log-weight vector stably.
func softmaxReference(logw []float64) []float64 {
	max := logw[0]
	for _, x := range logw[1:] {
		if x > max {
			max = x
		}
	}
	out := make([]float64, len(logw))
	var sum float64
	for i, x := range logw {
		out[i] = math.Exp(x - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func uniformMatrix(rows, cols int) [][]float64 {
	M := make([][]float64, rows)
	for k := range M {
		M[k] = mathx.Uniform(cols)
	}
	return M
}

func oneHot(n, idx int) []float64 {
	v := make([]float64, n)
	v[idx] = 1
	return v
}

func pinnedMatrix(rows, cols, idx int) [][]float64 {
	M := make([][]float64, rows)
	for k := range M {
		M[k] = oneHot(cols, idx)
	}
	return M
}

func cloneQuality(q map[string]model.QualityVector) map[string]model.QualityVector {
	out := make(map[string]model.QualityVector, len(q))
	for w, v := range q {
		c := make(model.QualityVector, len(v))
		copy(c, v)
		out[w] = c
	}
	return out
}

// paramDeltaReference is the convergence metric Δ of Section 6.3: the mean absolute
// change of the probabilistic truths plus the mean absolute change of the
// worker qualities.
func paramDeltaReference(s, sPrev [][]float64, workers []string, q, qPrev map[string]model.QualityVector, m int) float64 {
	var ds float64
	var terms int
	for i := range s {
		ds += mathx.L1Distance(s[i], sPrev[i]) / float64(len(s[i]))
		terms++
	}
	if terms > 0 {
		ds /= float64(terms)
	}
	var dq float64
	for _, w := range workers {
		dq += mathx.L1Distance(q[w], qPrev[w])
	}
	if len(workers) > 0 {
		dq /= float64(len(workers) * m)
	}
	return ds + dq
}

// refCase is one randomized input to Infer and its oracle.
type refCase struct {
	tasks   []*model.Task
	m       int
	answers *model.AnswerSet
	opt     Options
}

// genRefCase draws a campaign built to reach every branch the flat kernel
// took over: ℓ mixed over {2..5}, a drawn share (0–90 %) of tasks left
// unanswered, task IDs that are not slice indices, domain vectors of support
// 1, of support 1–2, dense (Dirichlet) and exactly uniform — full support,
// what a text no entity links is given — (a domain nobody touches keeps its
// initial quality), pinned tasks
// with and without answers, a worker who only ever agrees with pinned
// truths and one who only ever contradicts them (their qualities reach 1
// and 0 and clamp at qualityCeil/qualityFloor), and a partial InitQuality
// holding in-range, out-of-range and short vectors. Every fifth case has no
// answers at all.
func genRefCase(t *testing.T, r *mathx.Rand, cse int) *refCase {
	t.Helper()
	ms := []int{1, 3, 6, 26}
	m := ms[r.Intn(len(ms))]
	c := &refCase{m: m, answers: model.NewAnswerSet()}
	nTasks := 1 + r.Intn(40)
	ids := r.Perm(nTasks)
	planted := make([]int, nTasks)
	for i := 0; i < nTasks; i++ {
		ell := 2 + r.Intn(4)
		var dom model.DomainVector
		switch r.Intn(4) {
		case 0:
			dom = make(model.DomainVector, m)
			dom[r.Intn(m)] = 1
		case 1:
			dom = make(model.DomainVector, m)
			w := 0.2 + 0.6*r.Float64()
			dom[r.Intn(m)] += w
			dom[r.Intn(m)] += 1 - w
		case 2:
			dom = model.DomainVector(r.Dirichlet(m, 0.7))
		default:
			dom = model.DomainVector(mathx.Uniform(m))
		}
		choices := make([]string, ell)
		for j := range choices {
			choices[j] = fmt.Sprintf("c%d", j)
		}
		c.tasks = append(c.tasks, &model.Task{
			ID: 7 + 3*ids[i], Text: "t", Choices: choices,
			Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth,
		})
		planted[i] = r.Intn(ell)
	}

	c.opt.Pinned = nil
	for i := range c.tasks {
		if r.Float64() < 0.15 {
			c.opt.Pinned = append(c.opt.Pinned, Pin{P: int32(i), Truth: int32(planted[i])})
		}
	}

	add := func(w string, i, choice int) {
		if err := c.answers.Add(model.Answer{Worker: w, Task: c.tasks[i].ID, Choice: choice}); err != nil {
			t.Fatal(err)
		}
	}
	wrong := func(i int) int {
		x := r.Intn(c.tasks[i].NumChoices() - 1)
		if x >= planted[i] {
			x++
		}
		return x
	}
	if cse%5 != 0 {
		unanswered := 0.9 * r.Float64()
		open := make([]bool, nTasks)
		for i := range open {
			open[i] = r.Float64() >= unanswered
		}
		for w, nWorkers := 0, 1+r.Intn(8); w < nWorkers; w++ {
			id := fmt.Sprintf("w%d", w)
			acc := 0.3 + 0.65*r.Float64()
			for i := range c.tasks {
				if !open[i] || r.Float64() < 0.4 {
					continue
				}
				if r.Float64() < acc {
					add(id, i, planted[i])
				} else {
					add(id, i, wrong(i))
				}
			}
		}
		for i := range c.tasks {
			if _, pinned := pinOf(c.opt.Pinned, int32(i)); pinned && r.Float64() < 0.7 {
				add("always-right", i, planted[i])
				add("always-wrong", i, wrong(i))
			}
		}
	}

	c.opt.InitQuality = make(map[string]model.QualityVector)
	for _, w := range c.answers.Workers() {
		switch r.Intn(4) {
		case 0: // absent: starts at DefaultQuality
		case 1:
			q := make(model.QualityVector, m)
			for k := range q {
				q[k] = r.Float64()
			}
			c.opt.InitQuality[w] = q
		case 2: // at and beyond the clamps
			q := make(model.QualityVector, m)
			for k := range q {
				q[k] = []float64{0, 1, qualityFloor, qualityCeil, 0.5}[r.Intn(5)]
			}
			c.opt.InitQuality[w] = q
		default: // short: the tail stays zero
			c.opt.InitQuality[w] = make(model.QualityVector, m/2)
		}
	}
	c.opt.InitQuality["never-answers"] = make(model.QualityVector, m)

	switch cse % 4 {
	case 0: // the defaults: early stop at DefaultEpsilon
	case 1:
		c.opt.MaxIter, c.opt.Epsilon, c.opt.RecordDeltas = 7, -1, true
	case 2:
		c.opt.MaxIter, c.opt.Epsilon, c.opt.RecordDeltas = 40, 1e-7, true
	default:
		c.opt.MaxIter = 1
	}
	return c
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// supportOf returns the domains with r_k > 0, ascending: the rows a compact
// truth matrix holds, as indexes into the dense one.
func supportOf(r model.DomainVector) []int {
	var ks []int
	for k := range r {
		if r.Has(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestPropertyInferMatchesReference holds the support-only kernel to the
// dense textbook formulation: over 240 seeded campaigns every float of S,
// Quality and Deltas is the same bits, Truth and Iterations are equal, M
// holds exactly the support's rows and each is the reference's row of that
// domain bit for bit — for active, pinned and unanswered tasks alike — and
// Infer leaves what it was handed (InitQuality, Pinned) as it found it.
func TestPropertyInferMatchesReference(t *testing.T) {
	r := mathx.NewRand(20160412)
	clamped := 0
	shapes := map[string]int{} // support-1 / full-support / pinned tasks seen with answers
	for cse := 0; cse < 240; cse++ {
		c := genRefCase(t, r, cse)
		initBefore := cloneQuality(c.opt.InitQuality)
		pinnedBefore := len(c.opt.Pinned)

		want, err := inferReference(c.tasks, c.answers, c.m, c.opt)
		if err != nil {
			t.Fatalf("case %d: reference: %v", cse, err)
		}
		got, err := Infer(c.tasks, c.answers, c.m, c.opt)
		if err != nil {
			t.Fatalf("case %d: %v", cse, err)
		}

		if got.Iterations != want.Iterations {
			t.Fatalf("case %d: %d iterations, reference %d", cse, got.Iterations, want.Iterations)
		}
		if !bitsEqual(got.Deltas, want.Deltas) {
			t.Fatalf("case %d: deltas %v, reference %v", cse, got.Deltas, want.Deltas)
		}
		if len(got.S) != len(want.S) || len(got.M) != len(want.M) || len(got.Truth) != len(want.Truth) {
			t.Fatalf("case %d: result sized %d/%d/%d, reference %d/%d/%d", cse,
				len(got.S), len(got.M), len(got.Truth), len(want.S), len(want.M), len(want.Truth))
		}
		for i, tk := range c.tasks {
			if !bitsEqual(got.S[i], want.S[i]) {
				t.Fatalf("case %d task %d: s = %v, reference %v", cse, tk.ID, got.S[i], want.S[i])
			}
			supp := supportOf(tk.Domain)
			if len(got.M[i]) != len(supp) || len(want.M[i]) != c.m {
				t.Fatalf("case %d task %d: M has %d rows for a support of %d, reference %d of %d domains",
					cse, tk.ID, len(got.M[i]), len(supp), len(want.M[i]), c.m)
			}
			for x, k := range supp {
				if !bitsEqual(got.M[i][x], want.M[i][k]) {
					t.Fatalf("case %d task %d: M row %d = %v, reference M[%d] = %v", cse, tk.ID, x, got.M[i][x], k, want.M[i][k])
				}
			}
			if len(c.answers.ForTask(tk.ID)) > 0 {
				if _, pinned := pinOf(c.opt.Pinned, int32(i)); pinned {
					shapes["pinned"]++
				} else if len(supp) == 1 && c.m > 1 {
					shapes["support 1"]++
				} else if len(supp) == 26 {
					shapes["full support of 26"]++
				}
			}
			if got.Truth[i] != want.Truth[i] {
				t.Fatalf("case %d task %d: truth %d, reference %d", cse, tk.ID, got.Truth[i], want.Truth[i])
			}
		}
		if len(got.Quality) != len(want.Quality) {
			t.Fatalf("case %d: %d worker qualities, reference %d", cse, len(got.Quality), len(want.Quality))
		}
		for w, q := range want.Quality {
			if !bitsEqual(got.Quality[w], q) {
				t.Fatalf("case %d worker %s: q = %v, reference %v", cse, w, got.Quality[w], q)
			}
			for _, x := range q {
				if x < qualityFloor || x > qualityCeil {
					clamped++
					break
				}
			}
		}

		if len(c.opt.Pinned) != pinnedBefore || len(c.opt.InitQuality) != len(initBefore) {
			t.Fatalf("case %d: Infer resized an option map", cse)
		}
		for w, q := range initBefore {
			if !bitsEqual(c.opt.InitQuality[w], q) {
				t.Fatalf("case %d: Infer wrote InitQuality[%s]", cse, w)
			}
		}
	}
	if clamped < 100 {
		t.Errorf("only %d worker qualities ended outside the clamps; the generator no longer exercises clampQ", clamped)
	}
	for _, shape := range []string{"support 1", "full support of 26", "pinned"} {
		if shapes[shape] < 50 {
			t.Errorf("only %d answered tasks of shape %q; the generator no longer exercises it", shapes[shape], shape)
		}
	}
}

// TestInferErrorsMatchReference: the validation the kernel kept reports the
// same first error, in the same words.
func TestInferErrorsMatchReference(t *testing.T) {
	tk := func(id, ell int) *model.Task {
		return &model.Task{ID: id, Choices: make([]string, ell), Domain: model.DomainVector{0.5, 0.5},
			Truth: model.NoTruth, TrueDomain: model.NoTruth}
	}
	set := func(as ...model.Answer) *model.AnswerSet { return buildSet(t, as) }
	cases := []struct {
		name    string
		tasks   []*model.Task
		answers *model.AnswerSet
		opt     Options
	}{
		{"no domain", []*model.Task{{ID: 1, Choices: make([]string, 2), Truth: model.NoTruth, TrueDomain: model.NoTruth}}, set(), Options{}},
		{"one choice", []*model.Task{tk(1, 1)}, set(), Options{}},
		{"duplicate id", []*model.Task{tk(1, 2), tk(1, 3)}, set(), Options{}},
		{"unknown answered task", []*model.Task{tk(1, 2)}, set(model.Answer{Worker: "w", Task: 9}), Options{}},
		{"choice out of range", []*model.Task{tk(1, 2)}, set(model.Answer{Worker: "w", Task: 1, Choice: 2}), Options{}},
		{"unknown pinned task", []*model.Task{tk(1, 2)}, set(), Options{Pinned: []Pin{{P: 3}, {P: 4}}}},
		{"pinned truth out of range", []*model.Task{tk(1, 2)}, set(), Options{Pinned: []Pin{{P: 0, Truth: 2}}}},
	}
	for _, c := range cases {
		_, want := inferReference(c.tasks, c.answers, 2, c.opt)
		_, got := Infer(c.tasks, c.answers, 2, c.opt)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: error %v, reference %v", c.name, got, want)
		}
	}
}
