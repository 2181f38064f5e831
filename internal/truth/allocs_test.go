package truth

import (
	"fmt"
	"runtime"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// Allocation guards for the cost model: an unanswered task costs the rerun
// and the engine a few machine words, never an m×ℓ matrix.

const (
	allocM   = 26
	allocEll = 4
	// allocMatrixBytes is what one m×ℓ matrix of float64 weighs, headers
	// aside: the object no unanswered task may cost.
	allocMatrixBytes = allocM * allocEll * 8
)

func skipAllocsUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
}

// allocBytes is the heap f allocates, the least of three runs.
func allocBytes(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// indexed indexes an AnswerSet's answers at the positions of RowsOf(tasks),
// as a rerun indexes its log.
func indexed(t testing.TB, tasks []*model.Task, as *model.AnswerSet) *model.LogIndex {
	t.Helper()
	idx, err := IndexAnswers(tasks, as.All())
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// allocCampaign is nAnswered tasks with three answers each followed by
// nUnanswered tasks with none.
func allocCampaign(t *testing.T, nAnswered, nUnanswered int) ([]*model.Task, *model.AnswerSet) {
	t.Helper()
	r := mathx.NewRand(5)
	tasks := make([]*model.Task, nAnswered+nUnanswered)
	as := model.NewAnswerSet()
	for i := range tasks {
		tasks[i] = &model.Task{
			ID: i, Text: "t", Choices: make([]string, allocEll),
			Domain: model.DomainVector(r.Dirichlet(allocM, 0.5)),
			Truth:  model.NoTruth, TrueDomain: model.NoTruth,
		}
		for w := 0; i < nAnswered && w < 3; w++ {
			a := model.Answer{Worker: fmt.Sprintf("w%d", (i+w)%10), Task: i, Choice: r.Intn(allocEll)}
			if err := as.Add(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tasks, as
}

func TestAllocsInferUnansweredTask(t *testing.T) {
	skipAllocsUnderRace(t)
	const nUnanswered = 5000
	small, smallSet := allocCampaign(t, 50, 0)
	large, largeSet := allocCampaign(t, 50, nUnanswered)
	infer := func(tasks []*model.Task, as *model.AnswerSet, iters int) func() {
		return func() {
			if _, err := Infer(tasks, as, allocM, Options{MaxIter: iters, Epsilon: -1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := allocBytes(infer(small, smallSet, 20))
	with := allocBytes(infer(large, largeSet, 20))
	perTask := float64(with-base) / nUnanswered
	t.Logf("Infer: %d B over 50 answered tasks, %.1f B per additional unanswered task", base, perTask)
	if perTask >= 100 {
		t.Errorf("an unanswered task costs Infer %.1f B, want < 100 (its ℓ floats of S and its result slots)", perTask)
	}

	at5 := testing.AllocsPerRun(5, infer(large, largeSet, 5))
	at20 := testing.AllocsPerRun(5, infer(large, largeSet, 20))
	t.Logf("Infer: %.0f allocations at 5 iterations, %.0f at 20", at5, at20)
	if at20 != at5 {
		t.Errorf("Infer allocates %.0f times at 20 iterations but %.0f at 5: something allocates per iteration", at20, at5)
	}
}

func TestAllocsAddTaskSharesPrior(t *testing.T) {
	skipAllocsUnderRace(t)
	const n = 2000
	tasks, _ := allocCampaign(t, 0, n+1)
	inc := NewIncremental(allocM)
	if err := inc.AddTask(tasks[n]); err != nil { // the first task of this (m, ℓ) builds the shared states
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tk := range tasks[:n] {
		if err := inc.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / n
	count := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("AddTask: %.1f B in %.2f allocations per task", perTask, count)
	// incTask + s + TaskView + the task map's growth; a private matrix alone
	// would be 27 allocations and allocMatrixBytes more.
	if count > 5 || perTask >= allocMatrixBytes/2 {
		t.Errorf("AddTask of a seen ℓ costs %.1f B in %.2f allocations, want ≤ 5 allocations and < %d B", perTask, count, allocMatrixBytes/2)
	}
}

func TestAllocsRepeatReseed(t *testing.T) {
	skipAllocsUnderRace(t)
	const nUnanswered = 2000
	reseedBytes := func(nUnanswered int) uint64 {
		tasks, as := allocCampaign(t, 50, nUnanswered)
		inc := NewIncremental(allocM)
		for _, tk := range tasks {
			if err := inc.AddTask(tk); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range as.All() {
			if err := inc.Submit(a); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Infer(tasks, as, allocM, Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx := indexed(t, tasks, as)
		rows := RowsOf(tasks)
		inc.Reseed(rows, res, idx)
		return allocBytes(func() { inc.Reseed(rows, res, idx) })
	}
	base := reseedBytes(0)
	perTask := float64(reseedBytes(nUnanswered)-base) / nUnanswered
	t.Logf("second Reseed: %d B over 50 answered tasks, %.1f B per additional unanswered task", base, perTask)
	// One TaskView and one slot in the sorted entry list.
	if perTask >= allocMatrixBytes/4 {
		t.Errorf("an unanswered task costs a repeat Reseed %.1f B, want < %d", perTask, allocMatrixBytes/4)
	}
}

// supportOneCampaign is nAnswered support-1 tasks over m domains (task i
// relates to domain i mod 13 only), each answered by three of ten workers.
func supportOneCampaign(t *testing.T, m, nAnswered int) ([]*model.Task, *model.AnswerSet) {
	t.Helper()
	r := mathx.NewRand(5)
	tasks := make([]*model.Task, nAnswered)
	as := model.NewAnswerSet()
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[i%13] = 1
		tasks[i] = &model.Task{
			ID: i, Text: "t", Choices: make([]string, allocEll),
			Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth,
		}
		for w := 0; w < 3; w++ {
			a := model.Answer{Worker: fmt.Sprintf("w%d", (i+w)%10), Task: i, Choice: r.Intn(allocEll)}
			if err := as.Add(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tasks, as
}

// TestAllocsAnsweredTaskIndependentOfM: an answered task costs its support,
// not the dimension of the space it lives in. The heap a task's first Submit
// allocates (its private M̂, the view's M, s, the view), and the heap 200
// more answered support-1 tasks add to one Infer, are byte for byte and
// allocation for allocation the same over 26 domains and over 260. (The
// per-worker vectors are m long by design; both measurements hold the
// workers fixed so they cancel.)
func TestAllocsAnsweredTaskIndependentOfM(t *testing.T) {
	skipAllocsUnderRace(t)
	type cost struct{ bytes, allocs uint64 }
	measure := func(m int) (submit, infer cost) {
		tasks, as := supportOneCampaign(t, m, 250)
		// The least of several first Submits, each on a fresh Incremental:
		// one ReadMemStats pair also counts whatever the runtime allocated
		// meanwhile, and only the minimum is free of it.
		submit = cost{^uint64(0), ^uint64(0)}
		for rep := 0; rep < 5; rep++ {
			inc := NewIncremental(m)
			for _, tk := range tasks {
				if err := inc.AddTask(tk); err != nil {
					t.Fatal(err)
				}
			}
			if err := inc.SetWorker("w", NewStats(m)); err != nil { // a seen worker: her m-long stats exist already
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := inc.Submit(model.Answer{Worker: "w", Task: 7, Choice: 1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			submit.bytes = min(submit.bytes, after.TotalAlloc-before.TotalAlloc)
			submit.allocs = min(submit.allocs, after.Mallocs-before.Mallocs)
		}

		few := model.NewAnswerSet() // the same ten workers over the first 50 tasks
		for _, a := range as.All() {
			if a.Task < 50 {
				if err := few.Add(a); err != nil {
					t.Fatal(err)
				}
			}
		}
		run := func(tasks []*model.Task, as *model.AnswerSet) cost {
			f := func() {
				if _, err := Infer(tasks, as, m, Options{MaxIter: 5, Epsilon: -1}); err != nil {
					t.Fatal(err)
				}
			}
			return cost{allocBytes(f), uint64(testing.AllocsPerRun(3, f))}
		}
		base, with := run(tasks[:50], few), run(tasks, as)
		return submit, cost{with.bytes - base.bytes, with.allocs - base.allocs}
	}
	submit26, infer26 := measure(allocM)
	submit260, infer260 := measure(10 * allocM)
	t.Logf("first Submit: %d B in %d allocations; 200 more answered tasks cost Infer %d B in %d allocations (%.0f B a task)",
		submit26.bytes, submit26.allocs, infer26.bytes, infer26.allocs, float64(infer26.bytes)/200)
	if submit26 != submit260 {
		t.Errorf("a task's first Submit costs %+v over %d domains but %+v over %d", submit26, allocM, submit260, 10*allocM)
	}
	if infer26 != infer260 {
		t.Errorf("200 answered support-1 tasks cost Infer %+v over %d domains but %+v over %d", infer26, allocM, infer260, 10*allocM)
	}
	// One row of ℓ floats each for M̂ (plus the worker's quality on it) and
	// M, ℓ floats of s, two row headers, the view, the answer: nowhere near
	// the m×ℓ matrix pair a dense state would take.
	if submit26.bytes >= allocMatrixBytes/2 {
		t.Errorf("a support-1 task's first Submit allocates %d B, want < %d", submit26.bytes, allocMatrixBytes/2)
	}
}
