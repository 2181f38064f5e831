package truth

import (
	"fmt"
	"sort"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// denseEngine is the incremental engine of Section 4.2 as it stood while a
// task's state held all m rows: every loop runs over 0..m and the readers
// skip the zero-weight domains. Serial, no views, no sharing — the oracle
// TestPropertySubmitMatchesDenseStep holds Incremental to, the way
// inferReference is Infer's.
type denseEngine struct {
	m       int
	epoch   uint64
	tasks   map[int]*denseTask
	workers map[string]*Stats
}

type denseTask struct {
	task    *model.Task
	mhat    [][]float64 // m × ℓ
	s       []float64
	answers []model.Answer
	epoch   uint64 // the engine epoch of the task's last mutation
}

func newDenseEngine(m int) *denseEngine {
	return &denseEngine{m: m, tasks: make(map[int]*denseTask), workers: make(map[string]*Stats)}
}

func (e *denseEngine) worker(w string) *Stats {
	st, ok := e.workers[w]
	if !ok {
		st = NewStats(e.m)
		e.workers[w] = st
	}
	return st
}

func (e *denseEngine) addTask(t *model.Task) {
	ell := t.NumChoices()
	mhat := make([][]float64, e.m)
	for k := range mhat {
		mhat[k] = make([]float64, ell)
		for j := range mhat[k] {
			mhat[k][j] = 1
		}
	}
	e.epoch++
	e.tasks[t.ID] = &denseTask{task: t, mhat: mhat, s: applyDomainReference(t.Domain, normalizeRows(mhat)), epoch: e.epoch}
}

// submit is Incremental.Submit's two steps over all m rows.
func (e *denseEngine) submit(a model.Answer) {
	it := e.tasks[a.Task]
	ell := it.task.NumChoices()
	q := mathx.Clone(e.worker(a.Worker).Q)
	r := it.task.Domain

	sTilde := it.s
	for k := 0; k < e.m; k++ {
		qk := clampQ(q[k])
		wrong := (1 - qk) / float64(ell-1)
		row := it.mhat[k]
		var max float64
		for j := range row {
			if j == a.Choice {
				row[j] *= qk
			} else {
				row[j] *= wrong
			}
			if row[j] > max {
				max = row[j]
			}
		}
		if max > 0 {
			for j := range row {
				row[j] /= max
			}
		}
	}
	it.s = applyDomainReference(r, normalizeRows(it.mhat))

	st := e.worker(a.Worker)
	for k := 0; k < e.m; k++ {
		if rk := r[k]; rk > 0 {
			st.Q[k] = clamp01((st.Q[k]*st.U[k] + it.s[a.Choice]*rk) / (st.U[k] + rk))
			st.U[k] += rk
		}
	}
	for _, prev := range it.answers {
		ps := e.worker(prev.Worker)
		for k := 0; k < e.m; k++ {
			rk := r[k]
			if rk == 0 || ps.U[k] == 0 {
				continue
			}
			ps.Q[k] = clamp01((ps.Q[k]*ps.U[k] - sTilde[prev.Choice]*rk + it.s[prev.Choice]*rk) / ps.U[k])
		}
	}
	it.answers = append(it.answers, a)
	e.epoch++
	it.epoch = e.epoch
}

// reseed is Incremental.Reseed over a dense result (inferReference's).
func (e *denseEngine) reseed(tasks []*model.Task, res *Result, answers *model.AnswerSet) {
	order := make([]int, 0, len(tasks))
	for i, t := range tasks {
		if e.tasks[t.ID] != nil {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return tasks[order[a]].ID < tasks[order[b]].ID })
	e.epoch++ // one epoch covers the whole swap
	for _, i := range order {
		it := e.tasks[tasks[i].ID]
		snap := answers.ForTask(it.task.ID)
		if len(it.answers) > len(snap) {
			continue
		}
		for k := range it.mhat {
			copy(it.mhat[k], res.M[i][k])
		}
		it.s = mathx.Clone(res.S[i])
		it.answers = append(it.answers[:0], snap...)
		it.epoch = e.epoch
	}
	for _, w := range answers.Workers() {
		st := &Stats{Q: make(model.QualityVector, e.m), U: make([]float64, e.m)}
		num := make([]float64, e.m)
		for _, a := range answers.ForWorker(w) {
			i := -1
			for x, t := range tasks {
				if t.ID == a.Task {
					i = x
				}
			}
			for k := 0; k < e.m; k++ {
				num[k] += tasks[i].Domain[k] * res.S[i][a.Choice]
				st.U[k] += tasks[i].Domain[k]
			}
		}
		cur := e.worker(w)
		for k := 0; k < e.m; k++ {
			if st.U[k] > 0 {
				cur.Q[k] = num[k] / st.U[k]
				cur.U[k] = st.U[k]
			}
		}
	}
}

// TestPropertySubmitMatchesDenseStep drives seeded answer streams through
// Incremental and through the dense single-step engine, a batch rerun
// (Infer against inferReference, over a prefix of the stream so some tasks
// are ahead of it) reseeding both halfway. After every step the engine's
// epoch, every task's view (S, Truth, NumAnswers, Epoch, and M on the
// support rows), every raw numerator row and every worker's (q, u) are the
// dense engine's, bit for bit.
func TestPropertySubmitMatchesDenseStep(t *testing.T) {
	r := mathx.NewRand(20160412)
	for cse := 0; cse < 60; cse++ {
		c := genRefCase(t, r, cse)
		inc, dense := NewIncremental(c.m), newDenseEngine(c.m)
		for _, tk := range c.tasks {
			if err := inc.AddTask(tk); err != nil {
				t.Fatal(err)
			}
			dense.addTask(tk)
		}
		seeded := 0
		for _, w := range c.answers.Workers() {
			if q, ok := c.opt.InitQuality[w]; ok && len(q) == c.m {
				st := &Stats{Q: q, U: make([]float64, c.m)}
				for k := range st.U {
					st.U[k] = float64(seeded % 3) // 0: Step 2b must skip the domain
				}
				if err := inc.SetWorker(w, st); err != nil {
					t.Fatal(err)
				}
				dense.workers[w] = st.Clone()
				seeded++
			}
		}

		check := func(step string) {
			t.Helper()
			if inc.Epoch() != dense.epoch {
				t.Fatalf("case %d %s: epoch %d, dense %d", cse, step, inc.Epoch(), dense.epoch)
			}
			for _, tk := range c.tasks {
				v, d := inc.View(tk.ID), dense.tasks[tk.ID]
				if !bitsEqual(v.S, d.s) || v.Truth != mathx.ArgMax(d.s) || v.NumAnswers != len(d.answers) || v.Epoch != d.epoch {
					t.Fatalf("case %d %s task %d: view (s %v, truth %d, %d answers, epoch %d), dense (s %v, %d answers, epoch %d)",
						cse, step, tk.ID, v.S, v.Truth, v.NumAnswers, v.Epoch, d.s, len(d.answers), d.epoch)
				}
				supp, mhat, norm := supportOf(tk.Domain), inc.registered(tk.ID).mhat, normalizeRows(d.mhat)
				if len(v.M) != len(supp) || len(mhat) != len(supp) {
					t.Fatalf("case %d %s task %d: %d view rows, %d numerator rows, support %d", cse, step, tk.ID, len(v.M), len(mhat), len(supp))
				}
				for x, k := range supp {
					if !bitsEqual(v.M[x], norm[k]) || !bitsEqual(mhat[x], d.mhat[k]) {
						t.Fatalf("case %d %s task %d: row %d differs from dense row %d", cse, step, tk.ID, x, k)
					}
				}
			}
			if got, want := inc.Workers(), len(dense.workers); len(got) != want {
				t.Fatalf("case %d %s: %d workers, dense %d", cse, step, len(got), want)
			}
			for w, d := range dense.workers {
				st := inc.Worker(w)
				if !bitsEqual(st.Q, d.Q) || !bitsEqual(st.U, d.U) {
					t.Fatalf("case %d %s worker %s: (q %v, u %v), dense (q %v, u %v)", cse, step, w, st.Q, st.U, d.Q, d.U)
				}
			}
		}
		check("AddTask")

		stream := c.answers.All()
		prefix := model.NewAnswerSet()
		for n, a := range stream {
			if err := inc.Submit(a); err != nil {
				t.Fatal(err)
			}
			dense.submit(a)
			check(fmt.Sprintf("submit %d", n))
			if n < len(stream)*2/5 {
				if err := prefix.Add(a); err != nil {
					t.Fatal(err)
				}
			}
			if n != len(stream)/2 {
				continue
			}
			opt := Options{InitQuality: c.opt.InitQuality}
			res, err := Infer(c.tasks, prefix, c.m, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := inferReference(c.tasks, prefix, c.m, opt)
			if err != nil {
				t.Fatal(err)
			}
			inc.Reseed(RowsOf(c.tasks), res, indexed(t, c.tasks, prefix))
			dense.reseed(c.tasks, ref, prefix)
			check("Reseed")
		}
	}
}
