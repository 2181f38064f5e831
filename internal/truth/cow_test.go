package truth

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// Copy-on-write isolation: a task holding no answers aliases the process-wide
// rest states, so a write to one task must privatize that task alone and
// leave every sibling — and the shared table itself — bit-unchanged.

const (
	cowM   = 5
	cowEll = 3
	cowN   = 1000
)

// cowEngine registers cowN tasks of cowEll choices with varied domain
// vectors.
func cowEngine(t *testing.T) (*Incremental, []*model.Task) {
	t.Helper()
	r := mathx.NewRand(77)
	inc := NewIncremental(cowM)
	tasks := make([]*model.Task, cowN)
	for i := range tasks {
		tasks[i] = &model.Task{
			ID: i, Text: "t", Choices: make([]string, cowEll),
			Domain: model.DomainVector(r.Dirichlet(cowM, 0.5)),
			Truth:  model.NoTruth, TrueDomain: model.NoTruth,
		}
		if err := inc.AddTask(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	return inc, tasks
}

// slotOf is a slot holding the task AddTask registered with this ID, for
// the entry points that find a task through its slot.
func slotOf(inc *Incremental, id int) *Slot {
	s := new(Slot)
	s.it.Store(inc.registered(id))
	return s
}

// flatten appends every float of M to out.
func flatten(out []float64, M ...[]float64) []float64 {
	for _, row := range M {
		out = append(out, row...)
	}
	return out
}

// restFloats is a copy of every float of the shared (cowM, cowEll) rest
// states.
func restFloats() []float64 {
	st := restStatesFor(cowM, cowEll)
	out := flatten(nil, st.prior.mhat...)
	out = flatten(out, st.prior.norm...)
	out = flatten(out, st.reseeded.mhat...)
	out = flatten(out, st.reseeded.norm...)
	return flatten(out, st.uniform)
}

// viewFloats is a copy of every float the task's published view exposes.
func viewFloats(inc *Incremental, id int) []float64 {
	v := inc.View(id)
	return flatten(flatten(nil, v.M...), v.S)
}

// cowSnapshot records the shared table and every task's view, and returns a
// check that everything except the tasks in written is still those bits and
// still aliases shared (the rest matrix the siblings' views must point at).
func cowSnapshot(t *testing.T, inc *Incremental) func(step string, shared [][]float64, written ...int) {
	t.Helper()
	table := restFloats()
	views := make([][]float64, cowN)
	for id := range views {
		views[id] = viewFloats(inc, id)
	}
	return func(step string, shared [][]float64, written ...int) {
		t.Helper()
		if !bitsEqual(restFloats(), table) {
			t.Fatalf("%s: the shared rest states changed", step)
		}
		skip := make(map[int]bool)
		for _, id := range written {
			skip[id] = true
			if sameMatrix(inc.View(id).M, shared) || inc.registered(id).qbuf == nil {
				t.Errorf("%s: written task %d still aliases shared storage", step, id)
			}
		}
		for id := range views {
			if skip[id] {
				continue
			}
			if !bitsEqual(viewFloats(inc, id), views[id]) {
				t.Fatalf("%s: sibling task %d's view changed", step, id)
			}
			if !sameMatrix(inc.View(id).M, shared) || inc.registered(id).qbuf != nil {
				t.Fatalf("%s: sibling task %d was privatized", step, id)
			}
		}
	}
}

func TestCopyOnWriteSubmitAndRestoreIsolation(t *testing.T) {
	inc, tasks := cowEngine(t)
	prior := restStatesFor(cowM, cowEll).prior
	for id := 0; id < cowN; id++ {
		if !sameMatrix(inc.registered(id).mhat, prior.mhat) {
			t.Fatalf("task %d does not alias the prior after AddTask", id)
		}
	}
	check := cowSnapshot(t, inc)

	if err := inc.Submit(model.Answer{Worker: "w", Task: 500, Choice: 1}); err != nil {
		t.Fatal(err)
	}
	check("Submit", prior.norm, 500)
	if s := inc.View(500).S; s[1] <= s[0] {
		t.Errorf("the submit did not move task 500: s = %v", s)
	}

	ts := TaskState{ID: 7, MHat: newMatrix(cowM, cowEll), S: []float64{0.2, 0.3, 0.5}}
	for k := range ts.MHat {
		copy(ts.MHat[k], []float64{0.25, 1, 0.5})
	}
	inc.RestoreTask(RowOf(7, tasks[7]), slotOf(inc, 7), ts)
	check("RestoreTask", prior.norm, 500, 7)
	ts.MHat[0][0], ts.S[0] = 99, 99
	if v := inc.View(7); v.M[0][0] == 99 || v.S[0] == 99 {
		t.Error("RestoreTask kept the caller's slices")
	}
}

func TestCopyOnWriteReseedIsolation(t *testing.T) {
	inc, tasks := cowEngine(t)
	as := model.NewAnswerSet()
	answered := []int{3, 400, 999}
	for _, id := range answered {
		for w := 0; w < 3; w++ {
			a := model.Answer{Worker: fmt.Sprintf("w%d", w), Task: id, Choice: (id + w) % cowEll}
			if err := as.Add(a); err != nil {
				t.Fatal(err)
			}
			if err := inc.Submit(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Infer(tasks, as, cowM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Reseed(RowsOf(tasks), res, indexed(t, tasks, as))

	reseeded := restStatesFor(cowM, cowEll).reseeded
	for id := 0; id < cowN; id++ {
		it := inc.registered(id)
		isAnswered := id == 3 || id == 400 || id == 999
		if shared := sameMatrix(it.mhat, reseeded.mhat); shared == isAnswered {
			t.Fatalf("task %d (answered=%v) aliases the reseeded state: %v", id, isAnswered, shared)
		}
		if !it.touched {
			t.Fatalf("task %d not marked touched by Reseed", id)
		}
	}
	// A reseeded-unanswered task's M̂ is 1/ℓ, not the prior's 1: the bits a
	// snapshot has always carried for it.
	if got := inc.registered(0).mhat[0][0]; got != 1.0/cowEll {
		t.Fatalf("reseeded-unanswered M̂ = %g, want 1/ℓ", got)
	}
	check := cowSnapshot(t, inc)
	check("Reseed", reseeded.norm, answered...)

	late := model.Answer{Worker: "w0", Task: 600, Choice: 2}
	if err := inc.Submit(late); err != nil {
		t.Fatal(err)
	}
	check("Submit after Reseed", reseeded.norm, append(answered, 600)...)

	// A second rerun covers 600's answer, as every rerun covers the whole
	// log: 600 takes the run's own matrix, keeps its answer and re-aliases
	// nothing.
	if err := as.Add(late); err != nil {
		t.Fatal(err)
	}
	if res, err = Infer(tasks, as, cowM, Options{}); err != nil {
		t.Fatal(err)
	}
	inc.Reseed(RowsOf(tasks), res, indexed(t, tasks, as))
	if it := inc.registered(600); sameMatrix(it.mhat, reseeded.mhat) || len(it.answers) != 1 {
		t.Error("a rerun over task 600's answer did not reseed it with the answer")
	}
}

// TestCopyOnWriteExportRestoreRoundTrip: with prior-aliasing, reseeded-
// aliasing and private tasks all in play, export → fresh engine → restore →
// export reproduces every exported float.
func TestCopyOnWriteExportRestoreRoundTrip(t *testing.T) {
	inc, tasks := cowEngine(t)
	as := model.NewAnswerSet()
	for _, id := range []int{10, 20} {
		a := model.Answer{Worker: "w", Task: id, Choice: 1}
		if err := as.Add(a); err != nil {
			t.Fatal(err)
		}
		if err := inc.Submit(a); err != nil {
			t.Fatal(err)
		}
	}
	half := tasks[:cowN/2] // the rerun covers half the tasks: the rest stay at the prior, untouched
	res, err := Infer(half, as, cowM, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Reseed(RowsOf(half), res, indexed(t, half, as))
	late := model.Answer{Worker: "w2", Task: 700, Choice: 0}
	if err := inc.Submit(late); err != nil {
		t.Fatal(err)
	}

	first := inc.ExportTasks()
	if len(first) != cowN/2+1 {
		t.Fatalf("exported %d task states, want %d", len(first), cowN/2+1)
	}
	fresh := NewIncremental(cowM)
	for _, tk := range tasks {
		if err := fresh.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	for _, ts := range first {
		answers := as.ForTask(ts.ID)
		if ts.ID == late.Task {
			answers = []model.Answer{late}
		}
		row, slot := RowOf(ts.ID, tasks[ts.ID]), slotOf(fresh, ts.ID)
		recordAnswers(t, fresh, row, slot, answers)
		fresh.RestoreTask(row, slot, ts)
	}
	second := fresh.ExportTasks()
	if len(second) != len(first) {
		t.Fatalf("re-exported %d task states, want %d", len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.ID != b.ID || !bitsEqual(flatten(nil, a.MHat...), flatten(nil, b.MHat...)) || !bitsEqual(a.S, b.S) {
			t.Fatalf("task %d: state changed across export → restore → export", a.ID)
		}
		if sameMatrix(a.MHat, inc.registered(a.ID).mhat) {
			t.Fatalf("task %d: ExportTasks handed out engine storage", a.ID)
		}
	}
	for id := 0; id < cowN; id++ {
		if !bitsEqual(viewFloats(inc, id), viewFloats(fresh, id)) {
			t.Fatalf("task %d: restored view differs from the exported engine's", id)
		}
	}
}

// TestCopyOnWriteConcurrentSubmits: the engine's one writer privatizing
// distinct tasks of one ℓ while readers walk every task's view and load the
// workers' qualities — meaningful under -race.
func TestCopyOnWriteConcurrentSubmits(t *testing.T) {
	inc, _ := cowEngine(t)
	prior := restFloats()
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := make(model.QualityVector, cowM)
				for w := 0; w < 7; w++ {
					inc.Quality(fmt.Sprintf("w%d", w), q)
				}
				for id := 0; id < cowN; id++ {
					v := inc.View(id)
					var sum float64
					for _, row := range v.M {
						sum += mathx.Sum(row)
					}
					if sum += mathx.Sum(v.S); math.Abs(sum-(cowM+1)) > 1e-9 {
						t.Errorf("task %d: view rows sum to %g", id, sum)
						return
					}
				}
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for id := 0; id < cowN; id++ {
			a := model.Answer{Worker: fmt.Sprintf("w%d", id%7), Task: id, Choice: id % cowEll}
			if err := inc.Submit(a); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if !bitsEqual(restFloats(), prior) {
		t.Fatal("concurrent submits wrote the shared rest states")
	}
	for id := 0; id < cowN; id++ {
		if n := inc.View(id).NumAnswers; n != 1 {
			t.Fatalf("task %d holds %d answers, want 1", id, n)
		}
	}
}
