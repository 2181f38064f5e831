package truth

import (
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
	s := inc.S(1)
	if math.Abs(s[0]-0.79) > 0.005 || math.Abs(s[1]-0.21) > 0.005 {
		t.Errorf("incremental s = [%.4f %.4f], want ≈[0.79 0.21]", s[0], s[1])
	}
	if inc.Truth(1) != 0 {
		t.Errorf("incremental truth = %d, want 0", inc.Truth(1))
	}
	M := inc.M(1) // rows: sports, films — politics has r = 0 and no row
	if len(M) != 2 || math.Abs(M[0][0]-0.93) > 0.005 {
		t.Errorf("M = %v, want 2 rows with M[sports][yes] ≈0.93", M)
	}
}

// TestAddTaskBatch: a batch goes in whole, its initial views taking the
// engine's next epochs in the order given, or — with a task already
// registered, or one ID twice — not at all.
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
	s := inc.S(1)
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
		if err := mathx.CheckDistribution(inc.S(i), 1e-9); err != nil {
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
	inc.Reseed(RowsOf(tasks), res, indexed(t, as))
	for i, tk := range tasks {
		s := inc.S(tk.ID)
		if mathx.L1Distance(s, res.S[i]) > 1e-9 {
			t.Fatalf("task %d: reseeded s %v != batch %v", tk.ID, s, res.S[i])
		}
		if inc.Answers(tk.ID) != len(as.ForTask(tk.ID)) {
			t.Fatalf("task %d: answer count not reseeded", tk.ID)
		}
	}
	// After reseeding, further submissions still work and keep s valid.
	if err := inc.Submit(model.Answer{Worker: "fresh", Task: tasks[0].ID, Choice: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mathx.CheckDistribution(inc.S(tasks[0].ID), 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalUnknownAccessors(t *testing.T) {
	inc := NewIncremental(2)
	if inc.S(5) != nil || inc.M(5) != nil {
		t.Error("unknown task returned state")
	}
	if inc.Truth(5) != model.NoTruth {
		t.Error("unknown task returned truth")
	}
	if inc.Answers(5) != 0 {
		t.Error("unknown task returned answers")
	}
	if inc.Worker("nobody") != nil {
		t.Error("unknown worker returned stats")
	}
}
