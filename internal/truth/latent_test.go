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
			want, got := eager.View(tk.ID), viewOf(latent, RowOf(i, tk), &slots[i])
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
			latent.Materialise(RowOf(a.Task, tasks[a.Task]), &slots[a.Task])
			if err := latent.SubmitBy(latent.Intern(a.Worker), &slots[a.Task], a.Choice); err != nil {
				t.Fatal(err)
			}
			if err := as.Add(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("registered")
	if len(latent.made) != 0 || latent.Epoch() != 0 {
		t.Fatalf("a latent engine holds %d tasks at epoch %d before any answer", len(latent.made), latent.Epoch())
	}
	submit(0, 60)
	check("submits")
	res, err := Infer(tasks, as, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eager.Reseed(RowsOf(tasks), res, indexed(t, tasks, as))
	latent.Reseed(RowsOf(tasks), res, indexed(t, tasks, as))
	check("Reseed")
	submit(60, 90)
	check("submits after Reseed")
	if got := len(latent.made); got != len(as.Tasks()) {
		t.Fatalf("the latent engine holds %d tasks, %d answered", got, len(as.Tasks()))
	}

	exported := eager.ExportTasks()
	if got := latent.ExportTasks(); len(got) != len(as.Tasks()) {
		t.Fatalf("the latent engine exports %d tasks, %d answered", len(got), len(as.Tasks()))
	}
	restored, restoredSlots := NewIncremental(m), make([]Slot, n)
	restored.ReseedLatent()
	for _, ts := range exported {
		row := RowOf(ts.ID, tasks[ts.ID])
		recordAnswers(t, restored, row, &restoredSlots[ts.ID], as.ForTask(ts.ID))
		restored.RestoreTask(row, &restoredSlots[ts.ID], ts)
	}
	if got := len(restored.made); got != len(as.Tasks()) {
		t.Fatalf("restoring the eager export materialised %d tasks, %d answered", got, len(as.Tasks()))
	}
	for i, tk := range tasks {
		want, got := eager.View(tk.ID), viewOf(restored, RowOf(i, tk), &restoredSlots[i])
		if !bitsEqual(got.S, want.S) || !bitsEqual(flatten(nil, got.M...), flatten(nil, want.M...)) || got.NumAnswers != want.NumAnswers {
			t.Fatalf("task %d: restored over ReseedLatent, it reads another view than the eager engine's", tk.ID)
		}
	}
}

// TestUnlistedMatchesListed: a run that lists only the answered and pinned
// tasks and counts the rest unlisted is the run over every task, bit for
// bit — Quality, Iterations and every Δ, and, spread back over every task
// by Over, each task's S, M and Truth — and reseeding an engine that holds
// every task from it leaves every view, and its epoch, where the full run's
// reseed does: an unlisted task with no answer goes to the reseeded rest.
func TestUnlistedMatchesListed(t *testing.T) {
	r := mathx.NewRand(7781)
	for trial := 0; trial < 60; trial++ {
		c := genCampaign(r)
		for extra := 3 * len(c.tasks); extra > 0; extra-- { // unanswered tasks, in among the answered
			id := len(c.tasks)
			dom := make(model.DomainVector, c.m)
			dom[r.Intn(c.m)] = 1
			c.tasks = append(c.tasks, &model.Task{ID: id, Text: "t", Choices: make([]string, 2+r.Intn(3)),
				Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth})
		}
		r.Shuffle(len(c.tasks), func(i, j int) { c.tasks[i], c.tasks[j] = c.tasks[j], c.tasks[i] })
		as := buildSet(t, c.answers)
		rows, idx := RowsOf(c.tasks), indexed(t, c.tasks, as)
		var pinned []Pin
		var listed []Row
		for p, tk := range c.tasks {
			pin := len(as.ForTask(tk.ID)) == 0 && r.Intn(8) == 0
			if pin {
				pinned = append(pinned, Pin{P: int32(p), Truth: int32(r.Intn(tk.NumChoices()))})
			}
			if pin || len(as.ForTask(tk.ID)) > 0 {
				listed = append(listed, rows[p])
			}
		}
		opt := Options{Pinned: pinned, RecordDeltas: true}
		full, err := InferIndex(rows, idx, c.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Unlisted = len(c.tasks) - len(listed)
		part, err := InferIndex(listed, idx, c.m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if part.Iterations != full.Iterations || !bitsEqual(part.Deltas, full.Deltas) {
			t.Fatalf("trial %d: %d iterations, Δ %v; over every task %d, Δ %v", trial, part.Iterations, part.Deltas, full.Iterations, full.Deltas)
		}
		for w, q := range full.Quality {
			if !bitsEqual(part.Quality[w], q) {
				t.Fatalf("trial %d: worker %s's quality differs", trial, w)
			}
		}
		over := part.Over(rows)
		for i, tk := range c.tasks {
			if !bitsEqual(over.S[i], full.S[i]) || !bitsEqual(flatten(nil, over.M[i]...), flatten(nil, full.M[i]...)) || over.Truth[i] != full.Truth[i] {
				t.Fatalf("trial %d: task %d's state differs from the run over every task", trial, tk.ID)
			}
		}
		engines := [2]*Incremental{NewIncremental(c.m), NewIncremental(c.m)}
		for _, inc := range engines {
			if err := inc.AddTask(c.tasks...); err != nil {
				t.Fatal(err)
			}
		}
		engines[0].Reseed(rows, full, idx)
		engines[1].Reseed(listed, part, idx)
		for _, tk := range c.tasks {
			want, got := engines[0].View(tk.ID), engines[1].View(tk.ID)
			if !bitsEqual(got.S, want.S) || !bitsEqual(flatten(nil, got.M...), flatten(nil, want.M...)) ||
				got.NumAnswers != want.NumAnswers || got.Epoch != want.Epoch {
				t.Fatalf("trial %d: task %d reseeds to another view than the run over every task gives it", trial, tk.ID)
			}
		}
		if got, want := len(engines[1].ExportTasks()), len(engines[0].ExportTasks()); got != want {
			t.Fatalf("trial %d: the reseed touched %d tasks, the run over every task's %d", trial, got, want)
		}
	}
}

// viewOf is the view a reader of the task's row and slot takes: its own
// once it is materialised, else its Rest's.
func viewOf(inc *Incremental, t Row, slot *Slot) *TaskView {
	if v := slot.View(); v != nil {
		return v
	}
	return inc.Rest(t.R, int(t.Ell)).View()
}

// recordAnswers puts a task's answers in its V(i), through its slot,
// without their math, as a replay does before a snapshot's RestoreTask lands
// their effect.
func recordAnswers(t testing.TB, inc *Incremental, row Row, slot *Slot, answers []model.Answer) {
	t.Helper()
	for _, a := range answers {
		inc.Materialise(row, slot)
		if err := inc.Record(inc.Intern(a.Worker), slot, a.Choice); err != nil {
			t.Fatal(err)
		}
	}
}
