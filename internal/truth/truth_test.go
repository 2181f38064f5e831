package truth

import (
	"math"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// paperTask builds task t1 of the paper's running example: domain vector
// [0, 0.78, 0.22] over D = {politics, sports, films}, two choices.
func paperTask() *model.Task {
	return &model.Task{
		ID:         1,
		Text:       "Does Michael Jordan win more NBA championships than Kobe Bryant?",
		Choices:    []string{"yes", "no"},
		Domain:     model.DomainVector{0, 0.78, 0.22},
		Truth:      model.NoTruth,
		TrueDomain: model.NoTruth,
	}
}

// paperQualities is Table 1's worker quality vectors.
func paperQualities() map[string]model.QualityVector {
	return map[string]model.QualityVector{
		"w1": {0.3, 0.9, 0.6},
		"w2": {0.9, 0.6, 0.3},
		"w3": {0.6, 0.3, 0.9},
	}
}

// paperAnswers is Table 1's answers: w1 says yes, w2 and w3 say no.
func paperAnswers(t *testing.T) *model.AnswerSet {
	t.Helper()
	as := model.NewAnswerSet()
	for _, a := range []model.Answer{
		{Worker: "w1", Task: 1, Choice: 0},
		{Worker: "w2", Task: 1, Choice: 1},
		{Worker: "w3", Task: 1, Choice: 1},
	} {
		if err := as.Add(a); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// TestStep1WorkedExample reproduces Section 4.1's Step-1 numbers:
// M^(1)_{1,•} = [0.03, 0.97], M^(1)_{2,•} = [0.93, 0.07],
// M^(1)_{3,•} = [0.28, 0.72], and s_1 = [0.79, 0.21]. Politics has r_1 = 0,
// so Infer holds the two weighted rows only; the paper's first row is read
// off the dense oracle, which still computes it.
func TestStep1WorkedExample(t *testing.T) {
	tasks := []*model.Task{paperTask()}
	opt := Options{
		MaxIter:     1,
		Epsilon:     -1,
		InitQuality: paperQualities(),
	}
	res, err := Infer(tasks, paperAnswers(t), 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := inferReference(tasks, paperAnswers(t), 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	near := func(name string, got, want []float64) {
		t.Helper()
		for j := range want {
			if math.Abs(got[j]-want[j]) > 0.005 {
				t.Errorf("%s[%d] = %.4f, want ≈%.2f", name, j, got[j], want[j])
			}
		}
	}
	near("reference M[politics]", dense.M[0][0], []float64{0.03, 0.97})
	M := res.M[0]
	if len(M) != 2 {
		t.Fatalf("M has %d rows, want the 2 of the task's support", len(M))
	}
	near("M[sports]", M[0], []float64{0.93, 0.07})
	near("M[films]", M[1], []float64{0.28, 0.72})
	// Although two workers answered "no", the domain-aware truth leans "yes"
	// because w1 is the sports expert.
	s := res.S[0]
	if math.Abs(s[0]-0.79) > 0.005 || math.Abs(s[1]-0.21) > 0.005 {
		t.Errorf("s_1 = [%.4f, %.4f], want ≈[0.79, 0.21]", s[0], s[1])
	}
	if res.Truth[0] != 0 {
		t.Errorf("inferred truth = %d, want 0 (yes)", res.Truth[0])
	}
}

// TestStep2WorkedExample reproduces Section 4.1's Step-2 number: with
// s_{1,1}=0.95, s_{2,1}=0.3, r^{t1}_2=0.9, r^{t2}_2=0.05, the worker's
// quality for domain 2 is (0.9·0.95 + 0.05·0.3)/(0.9+0.05) ≈ 0.92.
func TestStep2WorkedExample(t *testing.T) {
	tasks := []*model.Task{
		{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{0.1, 0.9}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
		{ID: 2, Choices: []string{"a", "b"}, Domain: model.DomainVector{0.95, 0.05}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	as := model.NewAnswerSet()
	if err := as.Add(model.Answer{Worker: "w1", Task: 1, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	if err := as.Add(model.Answer{Worker: "w1", Task: 2, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	rows, idx := RowsOf(tasks), indexed(t, tasks, as)
	res := &Result{S: [][]float64{{0.95, 0.05}, {0.3, 0.7}}, row: rowsOfAnswers(rows, idx)}
	stats := SessionStats(rows, idx, res, 2) // w1 alone: stats[0]
	got := stats[0].Q[1]
	want := (0.9*0.95 + 0.05*0.3) / (0.9 + 0.05)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("q_2 = %.4f, want %.4f (≈0.92)", got, want)
	}
	if math.Abs(stats[0].U[1]-0.95) > 1e-9 {
		t.Errorf("u_2 = %g, want 0.95", stats[0].U[1])
	}
}

func TestInferValidation(t *testing.T) {
	noDomain := &model.Task{ID: 1, Choices: []string{"a", "b"}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	if _, err := Infer([]*model.Task{noDomain}, model.NewAnswerSet(), 3, Options{}); err == nil {
		t.Error("task without domain vector accepted")
	}

	skewed := &model.Task{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{0.5, 0.2, 0}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	if _, err := Infer([]*model.Task{skewed}, model.NewAnswerSet(), 3, Options{}); err == nil {
		t.Error("domain vector that is no distribution accepted")
	}

	tk := paperTask()
	dup := paperTask()
	if _, err := Infer([]*model.Task{tk, dup}, model.NewAnswerSet(), 3, Options{}); err == nil {
		t.Error("duplicate task IDs accepted")
	}

	as := model.NewAnswerSet()
	if err := as.Add(model.Answer{Worker: "w", Task: 99, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Infer([]*model.Task{tk}, as, 3, Options{}); err == nil {
		t.Error("answer for unknown task accepted")
	}

	as2 := model.NewAnswerSet()
	if err := as2.Add(model.Answer{Worker: "w", Task: 1, Choice: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := Infer([]*model.Task{tk}, as2, 3, Options{}); err == nil {
		t.Error("out-of-range choice accepted")
	}
}

func TestInferNoAnswersGivesUniform(t *testing.T) {
	tasks := []*model.Task{paperTask()}
	res, err := Infer(tasks, model.NewAnswerSet(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.S[0][0]-0.5) > 1e-9 {
		t.Errorf("unanswered task s = %v, want uniform", res.S[0])
	}
}

// synthetic builds a campaign where workers have strong domain structure:
// half the workers are experts on domain 0 and weak on domain 1, half the
// reverse; tasks are pure domain-0 or domain-1.
func synthetic(t *testing.T, nTasks, nWorkers, perTask int, seed uint64) ([]*model.Task, *model.AnswerSet, map[string]model.QualityVector) {
	t.Helper()
	r := mathx.NewRand(seed)
	const m = 2
	tasks := make([]*model.Task, nTasks)
	for i := range tasks {
		dom := model.DomainVector{1, 0}
		td := 0
		if i%2 == 1 {
			dom = model.DomainVector{0, 1}
			td = 1
		}
		tasks[i] = &model.Task{
			ID: i, Choices: []string{"a", "b"},
			Domain: dom, Truth: r.Intn(2), TrueDomain: td,
		}
	}
	trueQ := make(map[string]model.QualityVector, nWorkers)
	workers := make([]string, nWorkers)
	for w := 0; w < nWorkers; w++ {
		name := "worker" + string(rune('A'+w%26)) + string(rune('0'+w/26))
		workers[w] = name
		if w%2 == 0 {
			trueQ[name] = model.QualityVector{0.95, 0.55}
		} else {
			trueQ[name] = model.QualityVector{0.55, 0.95}
		}
	}
	as := model.NewAnswerSet()
	for _, tk := range tasks {
		perm := r.Perm(nWorkers)
		for _, wi := range perm[:perTask] {
			name := workers[wi]
			q := trueQ[name].Expected(tk.Domain)
			choice := tk.Truth
			if r.Float64() >= q {
				choice = 1 - tk.Truth
			}
			if err := as.Add(model.Answer{Worker: name, Task: tk.ID, Choice: choice}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tasks, as, trueQ
}

func majorityVote(tasks []*model.Task, as *model.AnswerSet) []int {
	out := make([]int, len(tasks))
	for i, tk := range tasks {
		counts := make([]float64, tk.NumChoices())
		for _, a := range as.ForTask(tk.ID) {
			counts[a.Choice]++
		}
		out[i] = mathx.ArgMax(counts)
	}
	return out
}

// TestInferBeatsMajorityVote: with domain-structured workers, domain-aware
// TI must dominate majority voting — the paper's Figure 5 headline.
func TestInferBeatsMajorityVote(t *testing.T) {
	tasks, as, _ := synthetic(t, 200, 20, 5, 11)
	res, err := Infer(tasks, as, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	accTI, _ := Accuracy(tasks, res.Truth)
	accMV, _ := Accuracy(tasks, majorityVote(tasks, as))
	if accTI < accMV {
		t.Errorf("TI accuracy %.3f < MV accuracy %.3f", accTI, accMV)
	}
	if accTI < 0.85 {
		t.Errorf("TI accuracy %.3f unexpectedly low", accTI)
	}
}

// TestInferRecoversWorkerQuality: estimated qualities should approach the
// generating qualities (Figure 6(b)'s calibration property).
func TestInferRecoversWorkerQuality(t *testing.T) {
	tasks, as, trueQ := synthetic(t, 400, 10, 6, 13)
	res, err := Infer(tasks, as, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var dev float64
	var cnt int
	for w, tq := range trueQ {
		eq, ok := res.Quality[w]
		if !ok {
			continue
		}
		for k := range tq {
			dev += math.Abs(tq[k] - eq[k])
			cnt++
		}
	}
	if avg := dev / float64(cnt); avg > 0.12 {
		t.Errorf("average quality deviation %.3f, want <= 0.12", avg)
	}
}

// TestInferConvergence: Δ must be non-increasing in trend and fall below a
// small threshold within 20 iterations (Figure 4(a)).
func TestInferConvergence(t *testing.T) {
	tasks, as, _ := synthetic(t, 150, 12, 5, 29)
	res, err := Infer(tasks, as, 2, Options{MaxIter: 30, Epsilon: -1, RecordDeltas: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deltas) != 30 {
		t.Fatalf("recorded %d deltas, want 30", len(res.Deltas))
	}
	if res.Deltas[19] > 0.01 {
		t.Errorf("Δ after 20 iterations = %g, want < 0.01", res.Deltas[19])
	}
	if res.Deltas[0] < res.Deltas[29] {
		t.Errorf("Δ grew: first %g, last %g", res.Deltas[0], res.Deltas[29])
	}
}

// TestInferEarlyStop: with a positive epsilon the solver stops before
// MaxIter on an easy instance.
func TestInferEarlyStop(t *testing.T) {
	tasks, as, _ := synthetic(t, 100, 8, 5, 31)
	res, err := Infer(tasks, as, 2, Options{MaxIter: 100, Epsilon: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100 {
		t.Errorf("no early stop: ran %d iterations", res.Iterations)
	}
}

// TestInferSIsDistribution: probabilistic truths are distributions and the
// rows a result holds — one per domain of the task's support — are
// distributions.
func TestInferSIsDistribution(t *testing.T) {
	tasks, as, _ := synthetic(t, 60, 10, 4, 37)
	res, err := Infer(tasks, as, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		if err := mathx.CheckDistribution(res.S[i], 1e-9); err != nil {
			t.Fatalf("s[%d]: %v", i, err)
		}
		if len(res.M[i]) != tasks[i].Domain.Support() {
			t.Fatalf("M[%d] has %d rows for a support of %d", i, len(res.M[i]), tasks[i].Domain.Support())
		}
		for x := range res.M[i] {
			if err := mathx.CheckDistribution(res.M[i][x], 1e-9); err != nil {
				t.Fatalf("M[%d][%d]: %v", i, x, err)
			}
		}
	}
}

// TestGoldenInitializationHelps: seeding worker qualities from golden tasks
// must not hurt accuracy relative to the flat default (Figure 4(b)).
func TestGoldenInitializationHelps(t *testing.T) {
	tasks, as, trueQ := synthetic(t, 200, 14, 3, 41)
	r := mathx.NewRand(5)

	// Build 12 golden tasks (6 per domain) and simulate each worker
	// answering all of them.
	golden := make([]*model.Task, 12)
	for g := range golden {
		dom := model.DomainVector{1, 0}
		if g%2 == 1 {
			dom = model.DomainVector{0, 1}
		}
		golden[g] = &model.Task{ID: 1000 + g, Choices: []string{"a", "b"}, Domain: dom, Truth: r.Intn(2), TrueDomain: model.NoTruth}
	}
	byWorker := make(map[string][]model.Answer)
	for w, q := range trueQ {
		for _, g := range golden {
			choice := g.Truth
			if r.Float64() >= q.Expected(g.Domain) {
				choice = 1 - g.Truth
			}
			byWorker[w] = append(byWorker[w], model.Answer{Worker: w, Task: g.ID, Choice: choice})
		}
	}
	init := InitQualityFromGolden(golden, byWorker, 2)

	resPlain, err := Infer(tasks, as, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resGolden, err := Infer(tasks, as, 2, Options{InitQuality: init})
	if err != nil {
		t.Fatal(err)
	}
	accPlain, _ := Accuracy(tasks, resPlain.Truth)
	accGolden, _ := Accuracy(tasks, resGolden.Truth)
	if accGolden+0.02 < accPlain {
		t.Errorf("golden init hurt: %.3f vs %.3f", accGolden, accPlain)
	}
}

func TestAccuracySkipsUnknownTruth(t *testing.T) {
	tasks := []*model.Task{
		{ID: 0, Choices: []string{"a", "b"}, Truth: 1, TrueDomain: model.NoTruth},
		{ID: 1, Choices: []string{"a", "b"}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	acc, n := Accuracy(tasks, []int{1, 0})
	if n != 1 || acc != 1 {
		t.Errorf("Accuracy = %g over %d, want 1 over 1", acc, n)
	}
	if acc, n := Accuracy(nil, nil); acc != 0 || n != 0 {
		t.Errorf("empty Accuracy = %g,%d", acc, n)
	}
}
