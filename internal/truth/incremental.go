package truth

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"docs/internal/mathx"
	"docs/internal/model"
)

// Incremental is the online truth-inference engine of Section 4.2. Instead
// of re-running the full iterative algorithm on every submission, it stores
// per-task unnormalized truth numerators M̂^(i) and per-worker (q, u) stats,
// and updates only the parameters touched by each incoming answer:
//
//	Step 1: M̂^(i) gains the new answer's likelihood factor, M^(i) and s_i
//	        are recomputed for that task alone;
//	Step 2: the answering worker's quality absorbs the new evidence, and
//	        the qualities of workers who answered the task before are
//	        corrected for the shift from s̃_i to the new s_i.
//
// Each Submit costs O(|supp r|·ℓ + |supp r|·|V(i)|) — the paper's
// O(m·ℓ + m·|V(i)|) bound with m replaced by the number of domains the task
// relates to, since a task's state holds one row per domain with r_k > 0
// and nothing else. The trade-off, as the paper notes, is that incremental
// estimates can drift from the batch fixed point; DOCS therefore re-runs the
// iterative solver every z submissions (see the core orchestrator).
//
// The engine has one writer: its mutations (AddTask, Materialise, Submit,
// Record, SetWorker, SeedWorker, Reseed, RestoreTask) must not run
// concurrently with each other — the serving core makes them on its
// campaign's one writer goroutine. Readers run beside that writer and never
// block it: every mutation publishes an immutable TaskView via an atomic
// pointer, which View and Slot.View load; a worker's statistics are float
// bits the writer stores entry by entry, which Quality and Worker load; and
// Handle and Names read the worker table under its lock.
//
// A task the serving core publishes is addressed by its publication
// position alone: the core holds there the Slot its state is found
// through, and the engine keeps no index over tasks. It is latent until its
// first answer: the engine holds nothing of it, and a reader takes the
// state every latent task of its domain vector and ℓ shares (Rest) — the
// AddTask prior until the engine's first rerun lands, the reseeded rest
// after it. Materialise gives it a state of its own, at that rest state,
// when an answer, a replayed one or a snapshot's numbers are about to land
// in it. AddTask, the offline entry point, materialises eagerly, at the
// engine's next positions, and names its tasks by ID through an ID-sorted
// permutation (View, Submit).
type Incremental struct {
	m     int
	epoch atomic.Uint64 // bumped on every state mutation

	// rests holds, per domain vector and ℓ, what the engine's latent tasks
	// of that shape read; reseededAt is the epoch of the first rerun that
	// landed, 0 before it.
	rests      map[restKey]*Rest
	reseededAt uint64
	made       []*incTask // every materialised task, in the order it materialised
	byID       []int32    // the tasks AddTask registered, as indexes into made, by ascending ID

	workers workerTable
}

// workerTable is the engine's one table of workers: each worker ID is
// interned once, at a handle — what V(i) and the serving core's answer log
// name her by — and her statistics live at that handle. Handles only grow,
// and an entry never moves: a copy of names or stats taken under mu stays
// valid. mu is the engine's one lock: a serving request looks a worker's
// handle up beside the writer that interns new ones.
type workerTable struct {
	mu     sync.RWMutex
	handle map[string]int32
	names  []string       // by handle
	stats  []*workerStats // by handle
}

// workerStats is one worker's statistics as float bits, valid once known is
// set: only the engine's writer stores into them, and a reader loads them
// entry by entry, so a read beside a write may see some entries before it
// and others after it, each whole.
type workerStats struct {
	known atomic.Bool
	q, u  floats
}

// floats is a vector of float64s one writer stores into while any goroutine
// loads from it.
type floats []atomic.Uint64

func (f floats) at(k int) float64     { return math.Float64frombits(f[k].Load()) }
func (f floats) set(k int, x float64) { f[k].Store(math.Float64bits(x)) }

// statsOf copies the worker's statistics out.
func (ws *workerStats) statsOf() *Stats {
	st := &Stats{Q: make(model.QualityVector, len(ws.q)), U: make([]float64, len(ws.u))}
	for k := range st.Q {
		st.Q[k], st.U[k] = ws.q.at(k), ws.u.at(k)
	}
	return st
}

// install stores st as the worker's statistics and marks her known.
func (ws *workerStats) install(st *Stats) {
	for k := range ws.q {
		ws.q.set(k, st.Q[k])
		ws.u.set(k, st.U[k])
	}
	ws.known.Store(true)
}

// ensure gives a worker the engine does not know yet the default statistics.
func (ws *workerStats) ensure(m int) {
	if !ws.known.Load() {
		ws.install(NewStats(m))
	}
}

// Vote is one answer as its task holds it: the answering worker's handle
// and her choice. 8 B, where a model.Answer takes 32 and a string.
type Vote struct{ Worker, Choice int32 }

// incTask is a materialised task: its state, its ID and position, and its
// shape — the Rest of its domain vector and choice count ℓ, all its math
// reads of the task.
type incTask struct {
	id   int
	p    int32
	rest *Rest
	// mhat[x][j] is the running numerator of Equation 3 for the x'th domain
	// of the task's support (r_k > 0, ascending) and choice j, rescaled per
	// row to avoid underflow (only ratios matter). A domain outside the
	// support has no row: every reader multiplies it by r_k = 0.
	// Copy-on-write: a task holding no answers aliases one of the shared
	// restStates matrices until own() gives it a private one. s is never
	// written in place — every mutation installs a fresh slice — so the
	// published views alias it.
	mhat [][]float64
	s    []float64
	// answers is V(i) in the order the task took them. It only grows, so a
	// view holds a prefix of it without a copy.
	answers []Vote
	// qbuf is the scratch copy of the submitting worker's quality on the
	// support (one entry per row), carved from the private M̂'s allocation:
	// nil exactly while mhat is shared.
	qbuf []float64
	// touched is set by every mutation after the task's materialisation
	// (Submit, Reseed, RestoreTask). An untouched task is at the rest state
	// it was materialised at, so ExportTasks leaves it out.
	touched bool

	view atomic.Pointer[TaskView]
}

// TaskView is an immutable snapshot of one task's inference state, published
// atomically after every mutation. Readers (the OTA hot path, the HTTP
// result endpoints) may hold a view across concurrent submits but must not
// modify it: no later mutation writes through its slices, and the M of a
// task holding no answers aliases a process-wide read-only matrix shared by
// every such task of the same (rows, ℓ). A latent task's view is its Rest's,
// shared by every latent task of its shape.
type TaskView struct {
	// M is the row-normalized truth matrix M^(i) at snapshot time: one row
	// per domain of the task's support (r_k > 0), in ascending domain
	// order, and nothing else.
	M [][]float64
	// S is the probabilistic truth s_i at snapshot time.
	S []float64
	// Truth is argmax(S), model.NoTruth only for degenerate states.
	Truth int
	// NumAnswers is |V(i)| at snapshot time.
	NumAnswers int
	// Epoch is the engine-wide mutation counter when the view was taken;
	// later views of any task carry larger epochs.
	Epoch uint64

	votes []Vote // V(i) at snapshot time
}

// Answered reports whether the worker with handle w had answered the task
// at snapshot time: T(w) is V(i) read from the task's side.
func (v *TaskView) Answered(w int32) bool {
	for _, a := range v.votes {
		if a.Worker == w {
			return true
		}
	}
	return false
}

// NewIncremental returns an empty incremental engine over m domains.
func NewIncremental(m int) *Incremental {
	return &Incremental{m: m, rests: make(map[restKey]*Rest), workers: workerTable{handle: make(map[string]int32)}}
}

// Intern returns the worker's handle, giving her one on first sight. An
// interned worker is not yet known to the engine (Quality): she has no
// statistics until an answer or a seed gives her some.
func (inc *Incremental) Intern(w string) int32 {
	if h, ok := inc.Handle(w); ok {
		return h
	}
	t := &inc.workers
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handle[w]
	if !ok {
		h = int32(len(t.names))
		vals := make(floats, 2*inc.m)
		t.handle[w], t.names, t.stats = h, append(t.names, w), append(t.stats, &workerStats{q: vals[:inc.m:inc.m], u: vals[inc.m:]})
	}
	return h
}

// Handle returns the worker's handle, if she has one.
func (inc *Incremental) Handle(w string) (int32, bool) {
	inc.workers.mu.RLock()
	defer inc.workers.mu.RUnlock()
	h, ok := inc.workers.handle[w]
	return h, ok
}

// Names returns every interned worker's ID, by handle. The slice is shared:
// read it, never write it.
func (inc *Incremental) Names() []string { names, _ := inc.table(); return names }

// table returns the worker IDs and statistics by handle, as they stand.
func (inc *Incremental) table() ([]string, []*workerStats) {
	t := &inc.workers
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[:len(t.names):len(t.names)], t.stats[:len(t.stats):len(t.stats)]
}

// stats returns the statistics slot of the worker at handle h.
func (inc *Incremental) stats(h int32) *workerStats { _, st := inc.table(); return st[h] }

// known returns the worker's statistics slot, nil unless she has a handle.
func (inc *Incremental) known(w string) *workerStats {
	if h, ok := inc.Handle(w); ok {
		return inc.stats(h)
	}
	return nil
}

// AddTask registers tasks, each with a domain vector, whole or not at all,
// each materialised at the AddTask prior (M̂ all ones) computed from the task
// alone: in one pass under one lock, into one slab, at the engine's next
// positions in the order given. Initial views take their epochs in that
// order. A task ID registered before, or twice in the call, refuses the
// call.
func (inc *Incremental) AddTask(tasks ...*model.Task) error {
	for _, t := range tasks {
		if t.Domain == nil {
			return fmt.Errorf("truth: incremental task %d has no domain vector", t.ID)
		}
		if err := t.Validate(inc.m); err != nil {
			return err
		}
	}
	shapes := make([]Rest, len(tasks))
	for i, t := range tasks {
		shapes[i] = Rest{R: t.Domain, Ell: t.NumChoices()}
	}
	return inc.materialise(len(tasks), func(i int) (int, int32, *Rest) { return tasks[i].ID, 0, &shapes[i] }, nil)
}

// Materialise gives a latent task, its row, a state of its own, at the rest
// state it reads, and fills its slot with it for the readers. The serving
// core calls it before an answer, a replayed answer or a snapshot's numbers
// land in the task; one already materialised is left as it is. The caller
// has validated the row.
func (inc *Incremental) Materialise(t Row, slot *Slot) {
	if slot.it.Load() == nil {
		rest := inc.Rest(t.R, int(t.Ell))
		_ = inc.materialise(1, func(int) (int, int32, *Rest) { return t.ID, t.P, rest }, &slot.it)
	}
}

// materialise is the one path an incTask is built on: n tasks into one
// slab, on the end of made, each with its first view, in the order given;
// task(i) gives the i'th task's ID, position and shape.
// Without a slot (AddTask) it takes them whole or not at all, at the
// engine's next positions, enters them in byID and starts each at the
// AddTask prior of its own Rest. With one (Materialise) the single task
// starts at the rest state its shape gives latent tasks, and fills the
// slot — unless another materialisation filled it first.
func (inc *Incremental) materialise(n int, task func(i int) (id int, p int32, rest *Rest), slot *atomic.Pointer[incTask]) error {
	slab := make([]incTask, n)
	if slot != nil && slot.Load() != nil {
		return nil
	}
	from := len(inc.made)
	for i := range slab {
		it := &slab[i]
		it.id, it.p, it.rest = task(i)
		inc.made = append(inc.made, it)
		if slot != nil {
			continue
		}
		it.p = int32(from + i)
		at, dup := inc.find(it.id)
		if dup {
			clear(inc.made[from:])
			inc.made = inc.made[:from]
			inc.byID = slices.DeleteFunc(inc.byID, func(x int32) bool { return int(x) >= from })
			return fmt.Errorf("truth: incremental task %d already registered", it.id)
		}
		inc.byID = slices.Insert(inc.byID, at, it.p)
	}
	for i := range slab {
		it := &slab[i]
		var M [][]float64
		if slot == nil {
			prior := restStatesFor(it.rest.R.Support(), it.rest.Ell).prior
			it.mhat, it.s, M = prior.mhat, make([]float64, it.rest.Ell), prior.norm
			applyDomain(it.s, it.rest.R, prior.norm)
		} else {
			// The state the task read until now.
			rest := it.rest
			v := rest.View()
			it.mhat, it.s, M = rest.states.prior.mhat, v.S, v.M
			if v != rest.prior {
				it.mhat = rest.states.reseeded.mhat
			}
		}
		it.publishView(inc.epoch.Add(1), M)
	}
	if slot != nil {
		slot.Store(&slab[0])
	}
	return nil
}

// find returns where id falls in byID, and whether a task AddTask
// registered has it.
func (inc *Incremental) find(id int) (int, bool) {
	return slices.BinarySearchFunc(inc.byID, id, func(x int32, id int) int { return cmp.Compare(inc.made[x].id, id) })
}

// registered returns the task AddTask registered with this ID, nil if none.
func (inc *Incremental) registered(id int) *incTask {
	if at, ok := inc.find(id); ok {
		return inc.made[inc.byID[at]]
	}
	return nil
}

// publishView snapshots the task's current state into an immutable view;
// M is normalizeRows(it.mhat), which the caller has computed or shares.
func (it *incTask) publishView(epoch uint64, M [][]float64) {
	v := &TaskView{
		M:          M,
		S:          it.s,
		Truth:      mathx.ArgMax(it.s),
		NumAnswers: len(it.answers),
		Epoch:      epoch,
		votes:      it.answers[:len(it.answers):len(it.answers)],
	}
	it.view.Store(v)
}

// SetWorker installs stored statistics for a worker (e.g. loaded from the
// parameter store or derived from golden tasks). Unknown workers submitting
// answers are lazily created with NewStats defaults.
func (inc *Incremental) SetWorker(w string, st *Stats) error {
	if err := st.Validate(inc.m); err != nil {
		return fmt.Errorf("truth: worker %q: %w", w, err)
	}
	inc.stats(inc.Intern(w)).install(st)
	return nil
}

// Worker returns a copy of the current statistics for a worker (nil if
// unseen), private to the caller.
func (inc *Incremental) Worker(w string) *Stats {
	if ws := inc.known(w); ws != nil && ws.known.Load() {
		return ws.statsOf()
	}
	return nil
}

// Quality copies the worker's current quality vector into q, of m entries
// or nil, and reports whether the engine has statistics for her: Worker's Q
// alone, with nothing allocated.
func (inc *Incremental) Quality(w string, q model.QualityVector) bool {
	ws := inc.known(w)
	if ws == nil || !ws.known.Load() {
		return false
	}
	for k := range q {
		q[k] = ws.q.at(k)
	}
	return true
}

// Workers returns the IDs of every worker the engine has statistics for,
// in sorted order. Used by state fingerprinting (recovery equivalence
// checks) and diagnostics.
func (inc *Incremental) Workers() []string {
	var ids []string
	names, stats := inc.table()
	for h, ws := range stats {
		if ws.known.Load() {
			ids = append(ids, names[h])
		}
	}
	sort.Strings(ids)
	return ids
}

// SeedWorker installs the statistics only if the worker is still unseen:
// a seed never overwrites stats her answers already updated. Reports
// whether the seed was installed.
func (inc *Incremental) SeedWorker(w string, st *Stats) (bool, error) {
	if err := st.Validate(inc.m); err != nil {
		return false, fmt.Errorf("truth: worker %q: %w", w, err)
	}
	ws := inc.stats(inc.Intern(w))
	if ws.known.Load() {
		return false, nil
	}
	ws.install(st)
	return true, nil
}

// Submit processes one answer to a task AddTask registered through the two
// incremental steps.
func (inc *Incremental) Submit(a model.Answer) error {
	w := inc.Intern(a.Worker)
	it := inc.registered(a.Task)
	if it == nil {
		return fmt.Errorf("truth: answer for unknown task %d", a.Task)
	}
	return inc.take(w, it, a.Choice, true)
}

// SubmitBy is Submit for the worker at handle w and the materialised task
// slot holds.
func (inc *Incremental) SubmitBy(w int32, slot *Slot, choice int) error {
	return inc.take(w, slot.it.Load(), choice, true)
}

// Record adds the answer of the worker at handle w to the V(i) of the
// materialised task slot holds without its math — a replayed answer whose
// effect a later overwrite (a rerun's Reseed, a snapshot's RestoreTask)
// lands — refusing what Submit refuses. The task's view is the overwrite's
// to publish.
func (inc *Incremental) Record(w int32, slot *Slot, choice int) error {
	return inc.take(w, slot.it.Load(), choice, false)
}

// take lands an answer in its task: in V(i), which is the duplicate check,
// and, with steps set, through the two incremental steps.
func (inc *Incremental) take(w int32, it *incTask, choice int, steps bool) error {
	if it == nil {
		return fmt.Errorf("truth: answer for a latent task")
	}
	ell := it.rest.Ell
	if choice < 0 || choice >= ell {
		return fmt.Errorf("truth: choice %d out of range for task %d (ℓ=%d)", choice, it.id, ell)
	}
	for _, prev := range it.answers {
		if prev.Worker == w {
			return fmt.Errorf("truth: worker %q already answered task %d", inc.Names()[w], it.id)
		}
	}
	if !steps {
		it.answers = append(it.answers, Vote{w, int32(choice)})
		return nil
	}
	it.own()
	_, stats := inc.table()
	// The submitting worker's quality on the support, which Step 1 folds
	// into M̂.
	r := it.rest.R
	ws := stats[w]
	ws.ensure(inc.m)
	x := 0
	for k := range r {
		if r.Has(k) {
			it.qbuf[x] = ws.q.at(k)
			x++
		}
	}

	// Step 1: fold the answer's likelihood into M̂^(i), refresh M and s.
	sTilde := it.s
	for x, row := range it.mhat {
		qk := clampQ(it.qbuf[x])
		wrong := (1 - qk) / float64(ell-1)
		var max float64
		for j := range row {
			if j == choice {
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
	M := normalizeRows(it.mhat)
	it.s = make([]float64, ell)
	applyDomain(it.s, r, M)

	// Step 2a: the submitting worker absorbs the new evidence.
	for k, rk := range r {
		if r.Has(k) {
			q, u := ws.q.at(k), ws.u.at(k)
			ws.q.set(k, clamp01((q*u+it.s[choice]*rk)/(u+rk)))
			ws.u.set(k, u+rk)
		}
	}

	// Step 2b: workers who answered this task before are corrected for the
	// truth shift s̃ → s on their own chosen option.
	for _, prev := range it.answers {
		ps := stats[prev.Worker]
		ps.ensure(inc.m)
		for k, rk := range r {
			if u := ps.u.at(k); r.Has(k) && u != 0 {
				ps.q.set(k, clamp01((ps.q.at(k)*u-sTilde[prev.Choice]*rk+it.s[prev.Choice]*rk)/u))
			}
		}
	}

	it.answers = append(it.answers, Vote{w, int32(choice)})
	it.touched = true
	it.publishView(inc.epoch.Add(1), M)
	return nil
}

// View returns the latest published immutable snapshot of the task AddTask
// registered with this ID (nil if none). The returned view is never
// mutated, so callers may use its M and S slices directly.
func (inc *Incremental) View(id int) *TaskView {
	if it := inc.registered(id); it != nil {
		return it.view.Load()
	}
	return nil
}

// Slot is where a task's state is found: empty while the task is latent —
// a reader then takes the task's Rest — and filled by Materialise. The
// serving core holds one per publication position, the one address a task
// has below it, and hands the engine the slot of the task an answer, a
// replayed answer or a snapshot's numbers land in.
type Slot struct{ it atomic.Pointer[incTask] }

// View returns the task's latest published snapshot, nil while the task is
// latent. The lock-free read path: the returned view is never mutated.
func (s *Slot) View() *TaskView {
	if it := s.it.Load(); it != nil {
		return it.view.Load()
	}
	return nil
}

// Epoch returns the engine-wide mutation counter: it increases once per
// materialised task (AddTask, Materialise), Submit and RestoreTask, and once
// per Reseed or ReseedLatent. Two reads returning the same epoch bracket a
// quiescent engine.
func (inc *Incremental) Epoch() uint64 { return inc.epoch.Load() }

// Reseed overwrites the engine's task states and worker qualities from a
// batch inference result; the core orchestrator calls this after the
// periodic full iterative run (every z submissions). It walks the
// materialised tasks alone, in position order, beside the rows of tasks in
// position order, and flips the latent ones, which hold nothing, to the
// reseeded rest (ReseedLatent): res and answers are aligned with tasks,
// which lists the answered tasks and may list others; a latent task is one
// nobody answered. One epoch covers the whole swap. The swap is atomic per
// task: readers see either the pre-rerun view or the reseeded one, never a
// mix. answers must hold every answer the engine has taken — a rerun
// indexes the whole log — so no task is ahead of it. A materialised task
// with no answer goes to the reseeded rest, as Infer leaves it, when the
// run covered it: when tasks lists it, or for every such task when the run
// covered tasks it did not list (Options.Unlisted). Otherwise it is left
// untouched. A reseeded task's V(i) is the index's answers: what it holds
// already when every answer came through Submit or Record, which put each
// answer a task takes in it, and a fresh copy of the index's otherwise.
func (inc *Incremental) Reseed(tasks []Row, res *Result, answers *model.LogIndex) {
	// A task materialised after this starts at the reseeded rest; one
	// before it is among those walked.
	epoch := inc.epoch.Add(1)
	inc.reseedLatent(epoch)
	its := slices.Clone(inc.made)
	slices.SortFunc(its, func(a, b *incTask) int { return cmp.Compare(a.p, b.p) })
	listed := byPosition(tasks)
	for _, it := range its {
		for len(listed) > 0 && tasks[listed[0]].P < it.p {
			listed = listed[1:]
		}
		if len(listed) == 0 || tasks[listed[0]].P != it.p {
			if res.unlisted > 0 {
				it.toRest(epoch)
			}
			continue
		}
		i := listed[0]
		snap := answers.ForTask(int32(it.p))
		// Infer hands every unanswered task the shared uniform matrix (and
		// s = Uniform(ℓ)): such a task aliases the reseeded rest state whole,
		// dropping any private matrix it held.
		if sameMatrix(res.M[i], restStatesFor(len(it.mhat), it.rest.Ell).reseeded.mhat) {
			it.toRest(epoch)
			continue
		}
		it.own()
		for k := range it.mhat {
			copy(it.mhat[k], res.M[i][k])
		}
		it.s = mathx.Clone(res.S[i])
		if len(it.answers) < len(snap) { // answers the engine never took: V(i) becomes the index's
			it.answers = make([]Vote, len(snap))
			for x, p := range snap {
				it.answers[x] = Vote{inc.Intern(answers.At(p).Worker), int32(answers.Choice(p))}
			}
		}
		it.touched = true
		it.publishView(epoch, normalizeRows(it.mhat))
	}
	session := SessionStats(tasks, answers, res, inc.m)
	for wi, w := range answers.Workers() {
		st, cur := &session[wi], inc.stats(inc.Intern(w))
		cur.ensure(inc.m)
		for k := 0; k < inc.m; k++ {
			if st.U[k] > 0 {
				cur.q.set(k, st.Q[k])
				cur.u.set(k, st.U[k])
			}
		}
	}
}

// ReseedLatent flips the latent tasks to the reseeded rest, as a rerun
// does; one epoch covers it. A boot installing a snapshot that covers a
// rerun calls it, since the snapshot lists materialised tasks only.
func (inc *Incremental) ReseedLatent() { inc.reseedLatent(inc.epoch.Add(1)) }

// reseedLatent flips the latent tasks to the reseeded rest at epoch, the
// first time it runs.
func (inc *Incremental) reseedLatent(epoch uint64) {
	if inc.reseededAt != 0 {
		return
	}
	inc.reseededAt = epoch
	//docs:allow determinism each Rest receives a view of its own; no iteration sees another's
	for _, rest := range inc.rests {
		rest.reseeded.Store(rest.states.reseededView(epoch))
	}
}

// toRest makes the task alias the reseeded rest state whole, dropping any
// private matrix it held. Note M̂ is 1/ℓ here, not the AddTask prior's 1 —
// the bits exports and snapshots have always carried for a reseeded task.
// The task holds no answer.
func (it *incTask) toRest(epoch uint64) {
	rest := restStatesFor(len(it.mhat), it.rest.Ell)
	it.mhat, it.qbuf, it.s = rest.reseeded.mhat, nil, rest.uniform
	it.touched = true
	it.publishView(epoch, rest.reseeded.norm)
}

// Rest is what every latent task of one domain vector and choice count
// reads: the AddTask prior (M̂ all ones, s = r × M) until the engine's first
// rerun lands, the reseeded rest (M̂ rows uniform, s = Uniform(ℓ)) after it.
// Nothing writes it but that one flip. A materialised task keeps the Rest it
// read as its shape; a task AddTask registers has one of its own, which
// holds R and Ell alone.
type Rest struct {
	// R is the domain vector: the publication's one copy, which keys the
	// engine's table with ℓ, the choice count Ell.
	R        model.DomainVector
	Ell      int
	states   *restStates
	prior    *TaskView
	reseeded atomic.Pointer[TaskView]
}

// View returns the view the rest state publishes now.
func (r *Rest) View() *TaskView {
	if v := r.reseeded.Load(); v != nil {
		return v
	}
	return r.prior
}

// restKey names a Rest: a domain vector's backing array — tasks share one
// exactly when their publication logged the same encoding — and ℓ.
type restKey struct {
	r   *float64
	ell int
}

// Rest returns the engine's rest state for a domain vector (of m entries)
// and ℓ choices, made on first use.
func (inc *Incremental) Rest(r model.DomainVector, ell int) *Rest {
	key := restKey{&r[0], ell}
	if rest := inc.rests[key]; rest != nil {
		return rest
	}
	st := restStatesFor(r.Support(), ell)
	s := make([]float64, ell)
	applyDomain(s, r, st.prior.norm)
	rest := &Rest{R: r, Ell: ell, states: st, prior: &TaskView{M: st.prior.norm, S: s, Truth: mathx.ArgMax(s)}}
	if inc.reseededAt != 0 {
		rest.reseeded.Store(st.reseededView(inc.reseededAt))
	}
	inc.rests[key] = rest
	return rest
}

// restStates holds, for one (rows, ℓ) — rows being the size of a task's
// support — the two states a task holding no answers can be in — they depend
// on nothing else — each with the row-normalized matrix its view publishes.
// Every such task of every engine in the process aliases them; nothing writes
// them after construction.
type restStates struct {
	prior    restState // as AddTask leaves it: M̂ all ones
	reseeded restState // as a rerun leaves it: M̂ rows uniform
	uniform  []float64 // Uniform(ℓ), the reseeded s
}

type restState struct{ mhat, norm [][]float64 }

// reseededView is the view of the reseeded rest state, taken at epoch.
func (st *restStates) reseededView(epoch uint64) *TaskView {
	return &TaskView{M: st.reseeded.norm, S: st.uniform, Truth: mathx.ArgMax(st.uniform), Epoch: epoch}
}

var (
	restMu    sync.RWMutex
	restTable = make(map[[2]int]*restStates) // keyed by (rows, ℓ); grows with the distinct shapes seen, never shrinks
)

// restStatesFor returns the shared rest states for a support of rows domains
// and ℓ choices.
func restStatesFor(rows, ell int) *restStates {
	key := [2]int{rows, ell}
	restMu.RLock()
	st := restTable[key]
	restMu.RUnlock()
	if st != nil {
		return st
	}
	st = &restStates{uniform: mathx.Uniform(ell)}
	st.prior.mhat, st.reseeded.mhat = newMatrix(rows, ell), newMatrix(rows, ell)
	for x := range st.prior.mhat {
		for j := range st.prior.mhat[x] {
			st.prior.mhat[x][j] = 1
		}
		copy(st.reseeded.mhat[x], st.uniform)
	}
	st.prior.norm, st.reseeded.norm = normalizeRows(st.prior.mhat), normalizeRows(st.reseeded.mhat)
	restMu.Lock()
	if first := restTable[key]; first != nil {
		st = first // lost the race: everyone must alias the same matrices
	} else {
		restTable[key] = st
	}
	restMu.Unlock()
	return st
}

// own gives the task a private M̂ (a copy of the shared one it aliased)
// before its first write.
func (it *incTask) own() {
	if it.qbuf != nil {
		return
	}
	rows, ell := len(it.mhat), it.rest.Ell
	buf := make([]float64, rows*ell+rows)
	private := matrixOver(buf[:rows*ell], rows, ell)
	for x, row := range it.mhat {
		copy(private[x], row)
	}
	it.mhat, it.qbuf = private, buf[rows*ell:]
}

// sameMatrix reports whether a and b are the same matrix (not equal ones).
func sameMatrix(a, b [][]float64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// newMatrix returns a zeroed rows×ℓ matrix: one backing array, one header
// array.
func newMatrix(rows, ell int) [][]float64 {
	return matrixOver(make([]float64, rows*ell), rows, ell)
}

// matrixOver lays rows rows of ℓ floats over buf.
func matrixOver(buf []float64, rows, ell int) [][]float64 {
	M := make([][]float64, rows)
	for x := range M {
		M[x] = buf[x*ell : (x+1)*ell : (x+1)*ell]
	}
	return M
}

// cloneMatrix returns a private copy of a non-ragged matrix.
func cloneMatrix(M [][]float64) [][]float64 {
	if len(M) == 0 {
		return [][]float64{}
	}
	out := newMatrix(len(M), len(M[0]))
	for k, row := range M {
		copy(out[k], row)
	}
	return out
}

func normalizeRows(mhat [][]float64) [][]float64 {
	out := cloneMatrix(mhat)
	for _, row := range out {
		mathx.Normalize(row)
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
