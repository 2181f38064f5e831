package truth

import (
	"fmt"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// TestLatentMatchesAddTask: an engine that materialises a task only when an
// answer is about to land in it reads, for every task, the view an engine
// that registered every task with AddTask publishes — before any rerun,
// after one (Reseed flips the latent tasks to the reseeded rest), and after
// a restore's ReseedLatent — bit for bit, while holding only the answered
// tasks. The latent engine exports only its answered tasks, and restoring
// what the eager engine exports — every task a rerun touched — materialises
// only the answered ones: an unanswered task's state is the rest state.
func TestLatentMatchesAddTask(t *testing.T) {
	const m, n = 6, 400
	r := mathx.NewRand(20160412)
	shapes := make([]model.DomainVector, 5) // tasks share vectors, as a publication's do
	for i := range shapes {
		shapes[i] = model.DomainVector(r.Dirichlet(m, 0.4))
	}
	tasks := make([]*model.Task, n)
	for i := range tasks {
		tasks[i] = &model.Task{ID: i, Text: "t", Choices: make([]string, 2+i%3), Domain: shapes[i%len(shapes)],
			Truth: model.NoTruth, TrueDomain: model.NoTruth}
	}
	eager, latent := NewIncremental(m), NewIncremental(m)
	if err := eager.AddTask(tasks...); err != nil {
		t.Fatal(err)
	}
	slots := make([]Slot, n)
	check := func(step string) {
		t.Helper()
		for i, tk := range tasks {
			want, got := eager.View(tk.ID), latent.ViewOf(tk)
			if v := slots[i].View(); v != nil && v != got {
				t.Fatalf("%s: task %d's slot holds another view than the engine's", step, tk.ID)
			}
			if !bitsEqual(got.S, want.S) || !bitsEqual(flatten(nil, got.M...), flatten(nil, want.M...)) ||
				got.Truth != want.Truth || got.NumAnswers != want.NumAnswers {
				t.Fatalf("%s: task %d reads a view other than the eager engine's", step, tk.ID)
			}
		}
	}
	as := model.NewAnswerSet()
	submit := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			a := model.Answer{Worker: fmt.Sprintf("w%d", i%7), Task: i * 13 % n, Choice: i % 2}
			if err := eager.Submit(a); err != nil {
				t.Fatal(err)
			}
			latent.Materialise(tasks[a.Task], &slots[a.Task])
			if err := latent.Submit(a); err != nil {
				t.Fatal(err)
			}
			if err := as.Add(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("registered")
	if latent.Materialised() != 0 || latent.Epoch() != 0 {
		t.Fatalf("a latent engine holds %d tasks at epoch %d before any answer", latent.Materialised(), latent.Epoch())
	}
	submit(0, 60)
	check("submits")
	res, err := Infer(tasks, as, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eager.Reseed(tasks, res, indexed(t, as))
	latent.Reseed(tasks, res, indexed(t, as))
	check("Reseed")
	submit(60, 90)
	check("submits after Reseed")
	if got := latent.Materialised(); got != len(as.Tasks()) {
		t.Fatalf("the latent engine holds %d tasks, %d answered", got, len(as.Tasks()))
	}

	exported := eager.ExportTasks()
	if got := latent.ExportTasks(); len(got) != len(as.Tasks()) {
		t.Fatalf("the latent engine exports %d tasks, %d answered", len(got), len(as.Tasks()))
	}
	restored := NewIncremental(m)
	restored.ReseedLatent()
	for _, ts := range exported {
		if err := restored.RestoreTask(tasks[ts.ID], nil, ts, as.ForTask(ts.ID)); err != nil {
			t.Fatal(err)
		}
	}
	if got := restored.Materialised(); got != len(as.Tasks()) {
		t.Fatalf("restoring the eager export materialised %d tasks, %d answered", got, len(as.Tasks()))
	}
	for _, tk := range tasks {
		want, got := eager.View(tk.ID), restored.ViewOf(tk)
		if !bitsEqual(got.S, want.S) || !bitsEqual(flatten(nil, got.M...), flatten(nil, want.M...)) || got.NumAnswers != want.NumAnswers {
			t.Fatalf("task %d: restored over ReseedLatent, it reads another view than the eager engine's", tk.ID)
		}
	}
}
