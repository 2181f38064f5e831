package truth

import (
	"fmt"
	"math"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

func TestIncrementalSingleTaskMatchesBatchStep1(t *testing.T) {
	// With fixed worker qualities (huge weights pin them), the incremental
	// engine's s after three answers must equal one batch Step-1 pass with
	// the same qualities — the likelihood factorization is identical.
	inc := NewIncremental(3)
	task := paperTask()
	if err := inc.AddTask(task); err != nil {
		t.Fatal(err)
	}
	for w, q := range paperQualities() {
		st := &Stats{Q: q, U: []float64{1e9, 1e9, 1e9}}
		if err := inc.SetWorker(w, st); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []model.Answer{
		{Worker: "w1", Task: 1, Choice: 0},
		{Worker: "w2", Task: 1, Choice: 1},
		{Worker: "w3", Task: 1, Choice: 1},
	} {
		if err := inc.Submit(a); err != nil {
			t.Fatal(err)
		}
	}
	v := inc.View(1)
	s := v.S
	if math.Abs(s[0]-0.79) > 0.005 || math.Abs(s[1]-0.21) > 0.005 {
		t.Errorf("incremental s = [%.4f %.4f], want ≈[0.79 0.21]", s[0], s[1])
	}
	if v.Truth != 0 {
		t.Errorf("incremental truth = %d, want 0", v.Truth)
	}
	M := v.M // rows: sports, films — politics has r = 0 and no row
	if len(M) != 2 || math.Abs(M[0][0]-0.93) > 0.005 {
		t.Errorf("M = %v, want 2 rows with M[sports][yes] ≈0.93", M)
	}
}

// TestAddTaskBatch: a batch goes in whole, its initial views taking the
// engine's next epochs in the order given, or — with a task already
// registered, or one ID twice — not at all. The offline entry points find a
// task by ID through the engine's ID-sorted permutation: over tasks added
// out of ID order in several calls, View(id) is the state Submit built for
// that ID — the view an engine holding that task alone reaches on the same
// answers — an unknown or negative ID has no view, and a Submit to one
// fails.
func TestAddTaskBatch(t *testing.T) {
	mk := func(id int) *model.Task {
		return &model.Task{ID: id, Choices: []string{"a", "b"}, Domain: model.DomainVector{0.5, 0.5}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	}
	inc := NewIncremental(2)
	if err := inc.AddTask(mk(7), mk(3), mk(5)); err != nil {
		t.Fatal(err)
	}
	for i, id := range []int{7, 3, 5} {
		if e := inc.View(id).Epoch; e != uint64(i+1) {
			t.Errorf("task %d, added %d'th, has view epoch %d", id, i+1, e)
		}
	}
	for name, batch := range map[string][]*model.Task{
		"registered": {mk(8), mk(3)},
		"twice":      {mk(9), mk(10), mk(9)},
	} {
		if err := inc.AddTask(batch...); err == nil {
			t.Errorf("%s: batch accepted", name)
		}
		if inc.Epoch() != 3 || inc.View(8) != nil || inc.View(9) != nil || inc.View(10) != nil || inc.View(3).Epoch != 2 {
			t.Errorf("%s: a refused batch left epoch %d and some of its tasks", name, inc.Epoch())
		}
	}

	for _, batch := range [][]int{{12, 0}, {4}, {1, 11}} {
		for _, id := range batch {
			if err := inc.AddTask(mk(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ids := []int{7, 3, 5, 12, 0, 4, 1, 11}
	answer := func(id, n int) model.Answer { // the n'th answer to task id, by a worker of its own
		return model.Answer{Worker: fmt.Sprintf("w%d-%d", id, n), Task: id, Choice: (id + n) % 3 % 2}
	}
	for x, id := range ids {
		for n := 0; n <= x%3; n++ {
			if err := inc.Submit(answer(id, n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for x, id := range ids {
		alone := NewIncremental(2)
		if err := alone.AddTask(mk(id)); err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= x%3; n++ {
			if err := alone.Submit(answer(id, n)); err != nil {
				t.Fatal(err)
			}
		}
		got, want := inc.View(id), alone.View(id)
		if got == nil || got.NumAnswers != x%3+1 || got.NumAnswers != want.NumAnswers || !bitsEqual(got.S, want.S) ||
			!bitsEqual(flatten(nil, got.M...), flatten(nil, want.M...)) {
			t.Fatalf("task %d: View reads %+v, want the %d answers' state %+v", id, got, x%3+1, want)
		}
	}
	for _, id := range []int{2, 6, 13, -1, -7} {
		if v := inc.View(id); v != nil {
			t.Errorf("unknown task %d has a view", id)
		}
		if err := inc.Submit(model.Answer{Worker: "w", Task: id, Choice: 0}); err == nil {
			t.Errorf("an answer to unknown task %d was accepted", id)
		}
	}
}

func TestIncrementalErrors(t *testing.T) {
	inc := NewIncremental(2)
	noDomain := &model.Task{ID: 1, Choices: []string{"a", "b"}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	if err := inc.AddTask(noDomain); err == nil {
		t.Error("task without domain accepted")
	}
	task := &model.Task{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{1, 0}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	if err := inc.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if err := inc.AddTask(task); err == nil {
		t.Error("duplicate task accepted")
	}
	if err := inc.Submit(model.Answer{Worker: "w", Task: 9, Choice: 0}); err == nil {
		t.Error("answer for unknown task accepted")
	}
	if err := inc.Submit(model.Answer{Worker: "w", Task: 1, Choice: 5}); err == nil {
		t.Error("out-of-range choice accepted")
	}
	if err := inc.Submit(model.Answer{Worker: "w", Task: 1, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Submit(model.Answer{Worker: "w", Task: 1, Choice: 1}); err == nil {
		t.Error("duplicate answer accepted")
	}
	badStats := &Stats{Q: model.QualityVector{0.5}, U: []float64{1}}
	if err := inc.SetWorker("x", badStats); err == nil {
		t.Error("wrong-size stats accepted")
	}
}

func TestIncrementalWorkerQualityMoves(t *testing.T) {
	// A worker agreeing with a confident truth should gain quality; one
	// disagreeing should lose it.
	inc := NewIncremental(1)
	task := &model.Task{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{1}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	if err := inc.AddTask(task); err != nil {
		t.Fatal(err)
	}
	// Three agreeing workers build confidence in choice 0.
	for _, w := range []string{"w1", "w2", "w3"} {
		if err := inc.Submit(model.Answer{Worker: w, Task: 1, Choice: 0}); err != nil {
			t.Fatal(err)
		}
	}
	s := inc.View(1).S
	if s[0] <= 0.9 {
		t.Fatalf("after 3 agreements s = %v, want confident", s)
	}
	before := inc.Worker("w1").Q[0]
	// A dissenting fourth worker should start below the agreeing ones.
	if err := inc.Submit(model.Answer{Worker: "w4", Task: 1, Choice: 1}); err != nil {
		t.Fatal(err)
	}
	if q4 := inc.Worker("w4").Q[0]; q4 >= before {
		t.Errorf("dissenter quality %g >= agreeing worker %g", q4, before)
	}
}

func TestIncrementalStep2bAdjustsPriorWorkers(t *testing.T) {
	inc := NewIncremental(1)
	task := &model.Task{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{1}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	if err := inc.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if err := inc.Submit(model.Answer{Worker: "w1", Task: 1, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	q1AfterOwn := inc.Worker("w1").Q[0]
	// w2 contradicts; the truth shifts toward ambiguity and w1's quality is
	// corrected downward by Step 2b.
	if err := inc.Submit(model.Answer{Worker: "w2", Task: 1, Choice: 1}); err != nil {
		t.Fatal(err)
	}
	q1AfterOther := inc.Worker("w1").Q[0]
	if q1AfterOther >= q1AfterOwn {
		t.Errorf("w1 quality did not decrease after contradiction: %g -> %g", q1AfterOwn, q1AfterOther)
	}
}

func TestIncrementalSIsAlwaysDistribution(t *testing.T) {
	r := mathx.NewRand(77)
	inc := NewIncremental(3)
	for i := 0; i < 20; i++ {
		dom := model.DomainVector(r.Dirichlet(3, 1))
		task := &model.Task{ID: i, Choices: []string{"a", "b", "c"}, Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth}
		if err := inc.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	workers := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 20; i++ {
		for _, w := range workers {
			if r.Float64() < 0.6 {
				if err := inc.Submit(model.Answer{Worker: w, Task: i, Choice: r.Intn(3)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := mathx.CheckDistribution(inc.View(i).S, 1e-9); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	for _, w := range workers {
		st := inc.Worker(w)
		if st == nil {
			continue
		}
		if err := st.Validate(3); err != nil {
			t.Errorf("worker %s stats invalid: %v", w, err)
		}
	}
}

func TestIncrementalReseedFromBatch(t *testing.T) {
	tasks, as, _ := synthetic(t, 40, 8, 5, 53)
	res, err := Infer(tasks, as, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc := NewIncremental(2)
	for _, tk := range tasks {
		if err := inc.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	inc.Reseed(RowsOf(tasks), res, indexed(t, tasks, as))
	for i, tk := range tasks {
		v := inc.View(tk.ID)
		if mathx.L1Distance(v.S, res.S[i]) > 1e-9 {
			t.Fatalf("task %d: reseeded s %v != batch %v", tk.ID, v.S, res.S[i])
		}
		if v.NumAnswers != len(as.ForTask(tk.ID)) {
			t.Fatalf("task %d: answer count not reseeded", tk.ID)
		}
	}
	// After reseeding, further submissions still work and keep s valid.
	if err := inc.Submit(model.Answer{Worker: "fresh", Task: tasks[0].ID, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mathx.CheckDistribution(inc.View(tasks[0].ID).S, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalUnknownAccessors(t *testing.T) {
	inc := NewIncremental(2)
	if inc.View(5) != nil {
		t.Error("unknown task returned a view")
	}
	q := model.QualityVector{0.5, 0.5}
	if inc.Worker("nobody") != nil || inc.Quality("nobody", q) || q[0] != 0.5 {
		t.Error("unknown worker returned stats")
	}
}
