// Micro-benchmarks of the core algorithms. The paper's tables and figures
// are cmd/docs-bench's runners table; experiment_test.go pins their shapes.
package docs

import (
	"testing"

	"docs/internal/assign"
	"docs/internal/crowd"
	"docs/internal/dve"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/truth"
)

// BenchmarkDVEAlgorithm1 measures the paper's polynomial DP on a padded
// Wikifier-shaped input (4 entities × 20 candidates × 26 domains).
func BenchmarkDVEAlgorithm1(b *testing.B) {
	r := mathx.NewRand(1)
	const m, nEnt, c = 26, 4, 20
	ents := make([]dve.Entity, nEnt)
	for i := range ents {
		e := dve.Entity{Probs: r.Dirichlet(c, 1), H: make([][]float64, c)}
		for j := range e.H {
			h := make([]float64, m)
			for k := 0; k < m; k++ {
				if r.Float64() < 0.12 {
					h[k] = 1
				}
			}
			e.H[j] = h
		}
		ents[i] = e
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dve.Compute(ents, m)
	}
}

// BenchmarkDVEEnumeration is the exponential baseline on the same input
// shape, for the Table 3 contrast.
func BenchmarkDVEEnumeration(b *testing.B) {
	r := mathx.NewRand(1)
	const m, nEnt, c = 26, 3, 8 // kept small: cost is c^nEnt
	ents := make([]dve.Entity, nEnt)
	for i := range ents {
		e := dve.Entity{Probs: r.Dirichlet(c, 1), H: make([][]float64, c)}
		for j := range e.H {
			h := make([]float64, m)
			for k := 0; k < m; k++ {
				if r.Float64() < 0.12 {
					h[k] = 1
				}
			}
			e.H[j] = h
		}
		ents[i] = e
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dve.ComputeEnum(ents, m)
	}
}

// BenchmarkEntityLinking measures mention detection + disambiguation over
// the default KB.
func BenchmarkEntityLinking(b *testing.B) {
	linker := entitylink.New(kb.MustDefault())
	text := "Does Michael Jordan win more NBA championships than Kobe Bryant with the Chicago Bulls?"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linker.Link(text)
	}
}

func benchCampaign(b *testing.B, nTasks, nWorkers, perTask int) ([]*model.Task, *model.AnswerSet) {
	b.Helper()
	pop, err := crowd.NewPopulation(crowd.Config{NumWorkers: nWorkers, M: 20, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	r := pop.Rand()
	tasks := make([]*model.Task, nTasks)
	for i := range tasks {
		dom := make(model.DomainVector, 20)
		dom[r.Intn(20)] = 1
		tasks[i] = &model.Task{ID: i, Choices: []string{"a", "b"}, Domain: dom,
			Truth: r.Intn(2), TrueDomain: model.NoTruth}
	}
	as, err := crowd.Collect(tasks, pop, perTask)
	if err != nil {
		b.Fatal(err)
	}
	return tasks, as
}

// BenchmarkTruthInferIterative measures one full iterative TI run
// (1000 tasks × 10 answers, m = 20) — the Figure 4(e) unit.
func BenchmarkTruthInferIterative(b *testing.B) {
	tasks, as := benchCampaign(b, 1000, 100, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := truth.Infer(tasks, as, 20, truth.Options{MaxIter: 20, Epsilon: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalSubmit measures the per-answer incremental update
// (Section 4.2's O(m·|V(i)|) path).
func BenchmarkIncrementalSubmit(b *testing.B) {
	tasks, _ := benchCampaign(b, 1000, 100, 0)
	inc := truth.NewIncremental(20)
	for _, t := range tasks {
		if err := inc.AddTask(t); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := "w" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
		if err := inc.Submit(model.Answer{Worker: w, Task: i % 1000, Choice: i % 2}); err != nil {
			// Duplicate (worker, task) pairs appear once i wraps; rebuild.
			b.StopTimer()
			inc = truth.NewIncremental(20)
			for _, t := range tasks {
				_ = inc.AddTask(t)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkAssignTopK measures one OTA decision over 10K candidate tasks
// (Figure 8(c)'s unit: benefit for all + linear top-k).
func BenchmarkAssignTopK(b *testing.B) {
	r := mathx.NewRand(5)
	const n, m = 10000, 20
	states := make([]assign.TaskState, n)
	for i := range states {
		ts := &states[i]
		*ts = assign.TaskState{ID: i, R: model.DomainVector(r.Dirichlet(m, 0.5)), M: make([][]float64, m)}
		for k := 0; k < m; k++ {
			ts.M[k] = r.Dirichlet(2, 1)
		}
		s := make([]float64, 2)
		for k, rk := range ts.R {
			for j := range s {
				s[j] += rk * ts.M[k][j]
			}
		}
		ts.S = mathx.Normalize(s)
	}
	q := make(model.QualityVector, m)
	for i := range q {
		q[i] = r.Range(0.4, 0.95)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(assign.Assigner).AssignStates(states, q, 20)
	}
}

// BenchmarkBenefitAlloc measures one benefit evaluation with the one-shot
// API (fresh buffers per call); BenchmarkBenefitScratch reuses a Scratch as
// the assignment hot path does. The allocs/op delta is the point.
func benchBenefitState() (*assign.TaskState, model.QualityVector) {
	r := mathx.NewRand(9)
	const m = 26
	ts := &assign.TaskState{ID: 0, R: model.DomainVector(r.Dirichlet(m, 0.5)), M: make([][]float64, m)}
	for k := 0; k < m; k++ {
		ts.M[k] = r.Dirichlet(2, 1)
	}
	s := make([]float64, 2)
	for k, rk := range ts.R {
		for j := range s {
			s[j] += rk * ts.M[k][j]
		}
	}
	ts.S = mathx.Normalize(s)
	q := make(model.QualityVector, m)
	for i := range q {
		q[i] = r.Range(0.4, 0.95)
	}
	return ts, q
}

func BenchmarkBenefitAlloc(b *testing.B) {
	ts, q := benchBenefitState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.Benefit(ts, q)
	}
}

func BenchmarkBenefitScratch(b *testing.B) {
	ts, q := benchBenefitState()
	var sc assign.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.BenefitWith(ts, q, &sc)
	}
}

// BenchmarkGoldenAllocation measures the approximate Equation 11 solver at
// production scale (m = 26, n' = 20).
func BenchmarkGoldenAllocation(b *testing.B) {
	r := mathx.NewRand(7)
	tau := r.Dirichlet(26, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign.GoldenAllocation(tau, 20)
	}
}

// BenchmarkPublicInferTruth measures the public offline API end to end
// (DVE + TI) on a small workload.
func BenchmarkPublicInferTruth(b *testing.B) {
	tasks := []Task{
		{ID: 0, Text: "Does Michael Jordan win more NBA championships than Kobe Bryant?",
			Choices: []string{"yes", "no"}, GoldenTruth: NoTruth},
		{ID: 1, Text: "Which food contains more calories, Chocolate or Honey?",
			Choices: []string{"Chocolate", "Honey"}, GoldenTruth: NoTruth},
	}
	var answers []Answer
	for _, w := range []string{"w1", "w2", "w3", "w4", "w5"} {
		for _, t := range tasks {
			answers = append(answers, Answer{Worker: w, TaskID: t.ID, Choice: 0})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InferTruth(tasks, answers); err != nil {
			b.Fatal(err)
		}
	}
}
