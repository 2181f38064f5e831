// Package model defines the shared data model of the DOCS system —
// Definitions 1–4 of the paper: the domain set D, tasks with domain vectors
// r^t, workers with quality vectors q^w, and answers with (possibly hidden)
// ground truth v*.
//
// Conventions used throughout the repository:
//   - domains, choices and tasks are 0-indexed (the paper is 1-indexed);
//   - a task's ground truth of NoTruth (-1) means "unknown";
//   - all probability vectors sum to 1 within Tolerance.
package model

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"docs/internal/mathx"
)

// Tolerance is the numeric slack accepted when validating distributions.
const Tolerance = 1e-6

// NoTruth marks a task whose ground truth is unknown.
const NoTruth = -1

// DomainSet is the fixed, ordered set of domains D = {d_1, ..., d_m}
// (Definition 1) used to interpret tasks and profile workers.
type DomainSet struct {
	names []string
	index map[string]int
}

// NewDomainSet builds a DomainSet from the given names. Names must be unique
// and non-empty.
func NewDomainSet(names []string) (*DomainSet, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("model: domain set must be non-empty")
	}
	ds := &DomainSet{
		names: append([]string(nil), names...),
		index: make(map[string]int, len(names)),
	}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("model: domain %d has empty name", i)
		}
		if _, dup := ds.index[n]; dup {
			return nil, fmt.Errorf("model: duplicate domain %q", n)
		}
		ds.index[n] = i
	}
	return ds, nil
}

// MustDomainSet is NewDomainSet that panics on error; for package-level
// catalogues and tests.
func MustDomainSet(names []string) *DomainSet {
	ds, err := NewDomainSet(names)
	if err != nil {
		panic(err)
	}
	return ds
}

// Size returns m, the number of domains.
func (d *DomainSet) Size() int { return len(d.names) }

// Name returns the name of domain k.
func (d *DomainSet) Name(k int) string { return d.names[k] }

// Names returns a copy of the ordered domain names.
func (d *DomainSet) Names() []string { return append([]string(nil), d.names...) }

// Index returns the index of the named domain and whether it exists.
func (d *DomainSet) Index(name string) (int, bool) {
	k, ok := d.index[name]
	return k, ok
}

// DomainVector is a task's distribution r^t over the domain set
// (Definition 2): r_k ∈ [0,1], Σ r_k = 1.
type DomainVector []float64

// Validate checks that v is a distribution of the expected size m with no
// entry below zero. The sum may be off by Tolerance; a negative entry, however
// small, is refused, because r_k > 0 is what decides whether domain k
// takes part in the task at all (Has) and a vector whose entries were merely
// "close to" non-negative would let two readers disagree about that. −0 is
// legal and outside the support.
func (v DomainVector) Validate(m int) error {
	if len(v) != m {
		return fmt.Errorf("model: domain vector has size %d, want %d", len(v), m)
	}
	for k, x := range v {
		if x < 0 {
			//docs:allow floatbits error text is human-facing; never encoded or digested
			return fmt.Errorf("model: domain vector entry %d = %g is negative", k, x)
		}
	}
	return mathx.CheckDistribution(v, Tolerance)
}

// Has reports whether domain k is in the support of v: r_k > 0, which for a
// valid vector is r_k ≠ 0 (so −0 is out). This is the one definition of "the
// task relates to domain k": the truth matrices hold one row per domain in
// the support and nothing else, and every kernel that weighs by r walks the
// support through it.
func (v DomainVector) Has(k int) bool { return v[k] > 0 }

// Support returns |supp v|, the number of domains the task relates to — the
// number of rows its truth matrices hold. At least 1 for a valid vector.
func (v DomainVector) Support() int {
	n := 0
	for k := range v {
		if v.Has(k) {
			n++
		}
	}
	return n
}

// Top returns the index of the most related domain.
func (v DomainVector) Top() int { return mathx.ArgMax(v) }

// QualityVector is a worker's per-domain accuracy q^w (Definition 3):
// q_k ∈ [0,1] is the probability the worker answers a pure domain-k task
// correctly.
type QualityVector []float64

// Validate checks that q has size m and entries in [0,1].
func (q QualityVector) Validate(m int) error {
	if len(q) != m {
		return fmt.Errorf("model: quality vector has size %d, want %d", len(q), m)
	}
	for k, x := range q {
		if x < -Tolerance || x > 1+Tolerance || x != x {
			//docs:allow floatbits error text is human-facing; never encoded or digested
			return fmt.Errorf("model: quality[%d] = %g outside [0,1]", k, x)
		}
	}
	return nil
}

// Expected returns the expected accuracy of a worker with quality q on a
// task with domain vector r: Σ_k r_k·q_k. This is the answer model of
// Equation 4 marginalised over the task's true domain.
func (q QualityVector) Expected(r DomainVector) float64 {
	var a float64
	for k := range q {
		if k < len(r) {
			a += q[k] * r[k]
		}
	}
	return a
}

// Task is a multiple-choice task (Definition 2): a text description,
// ℓ choices, a domain vector over D, and an optional hidden ground truth.
type Task struct {
	// ID identifies the task within its task set.
	ID int
	// Text is the natural-language description shown to workers and fed to
	// the entity linker.
	Text string
	// Choices are the ℓ possible answers.
	Choices []string
	// Domain is the task's domain vector r^t. May be nil before DVE runs.
	Domain DomainVector
	// Truth is the index of the correct choice, or NoTruth if unknown.
	// It is hidden from inference and used only for evaluation and for
	// golden tasks.
	Truth int
	// TrueDomain optionally records the single labelled domain used by the
	// domain-detection experiments (Figure 3); NoTruth when unlabelled.
	TrueDomain int
}

// NumChoices returns ℓ for the task.
func (t *Task) NumChoices() int { return len(t.Choices) }

// Validate checks structural invariants of the task against a domain set of
// size m. A nil Domain is allowed (DVE has not run yet). A negative ID is
// not: the durable formats store IDs unsigned, so one accepted here would
// be a record no later boot can read.
func (t *Task) Validate(m int) error {
	if t.ID < 0 {
		return fmt.Errorf("model: task ID %d is negative", t.ID)
	}
	if len(t.Choices) < 2 {
		return fmt.Errorf("model: task %d has %d choices, want >= 2", t.ID, len(t.Choices))
	}
	if t.Truth != NoTruth && (t.Truth < 0 || t.Truth >= len(t.Choices)) {
		return fmt.Errorf("model: task %d truth %d out of range [0,%d)", t.ID, t.Truth, len(t.Choices))
	}
	if t.TrueDomain != NoTruth && (t.TrueDomain < 0 || t.TrueDomain >= m) {
		return fmt.Errorf("model: task %d true domain %d out of range [0,%d)", t.ID, t.TrueDomain, m)
	}
	if t.Domain != nil {
		if err := t.Domain.Validate(m); err != nil {
			return fmt.Errorf("model: task %d: %w", t.ID, err)
		}
	}
	return nil
}

// Answer records that a worker chose one of a task's options
// (Definition 4). Choice is 0-indexed.
type Answer struct {
	Worker string
	Task   int
	Choice int
}

// AnswerSet groups the collected answers of a task set, indexed both by
// task (V(i) in the paper) and by worker (T(w)).
type AnswerSet struct {
	byTask   map[int][]Answer
	byWorker map[string][]Answer
	all      []Answer // insertion order, preserved by Clone
}

// NewAnswerSet returns an empty AnswerSet.
func NewAnswerSet() *AnswerSet {
	return &AnswerSet{
		byTask:   make(map[int][]Answer),
		byWorker: make(map[string][]Answer),
	}
}

// Add records an answer. A worker answering the same task twice is the
// caller's responsibility to prevent (the paper assumes at most once); Add
// returns an error if it detects a duplicate.
func (s *AnswerSet) Add(a Answer) error {
	for _, prev := range s.byWorker[a.Worker] {
		if prev.Task == a.Task {
			return errAnswered(a)
		}
	}
	s.byTask[a.Task] = append(s.byTask[a.Task], a)
	s.byWorker[a.Worker] = append(s.byWorker[a.Worker], a)
	s.all = append(s.all, a)
	return nil
}

// ForTask returns V(i): the answers collected for task i. The returned slice
// must not be modified.
func (s *AnswerSet) ForTask(i int) []Answer { return s.byTask[i] }

// ForWorker returns the answers given by worker w (T(w) with choices).
// The returned slice must not be modified.
func (s *AnswerSet) ForWorker(w string) []Answer { return s.byWorker[w] }

// Workers returns the distinct worker IDs that have answered, in sorted
// order. Sorted here — not in callers — so map iteration order can never
// leak into inference accumulation order through a caller that forgets.
func (s *AnswerSet) Workers() []string {
	ws := make([]string, 0, len(s.byWorker))
	for w := range s.byWorker {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}

// Tasks returns the distinct task IDs that have received answers, in
// sorted order (see Workers for why the sort lives here).
func (s *AnswerSet) Tasks() []int {
	ts := make([]int, 0, len(s.byTask))
	for t := range s.byTask {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	return ts
}

// Len returns the total number of answers.
func (s *AnswerSet) Len() int { return len(s.all) }

// All returns the answers in insertion order. The returned slice must not
// be modified.
func (s *AnswerSet) All() []Answer { return s.all }

// Has reports whether worker w has answered task i.
func (s *AnswerSet) Has(w string, i int) bool {
	for _, a := range s.byWorker[w] {
		if a.Task == i {
			return true
		}
	}
	return false
}

func errAnswered(a Answer) error {
	return fmt.Errorf("model: worker %q already answered task %d", a.Worker, a.Task)
}

// Columns is an answer log laid out by column: answer p is the choice
// Choice[p] of the worker with handle Worker[p] on the task at position
// Task[p]. A LogIndex names the handles and positions (IndexColumns).
type Columns struct {
	Worker, Task, Choice []int32
}

// Len returns the number of answers.
func (c Columns) Len() int { return len(c.Worker) }

// Append returns c with one more answer at its end.
func (c Columns) Append(worker, task, choice int32) Columns {
	return Columns{append(c.Worker, worker), append(c.Task, task), append(c.Choice, choice)}
}

// Capped returns c capped at its length: a later Append to c writes past
// the cap or into new backing arrays, never into what Capped returned.
func (c Columns) Capped() Columns {
	n := c.Len()
	return Columns{c.Worker[:n:n], c.Task[:n:n], c.Choice[:n:n]}
}

// LogIndex groups an answer log by task and by worker where it lies, as
// int32 positions into its columns: 8 B an answer, and 4 more while it is
// built. A task group is keyed by the task position the log's task column
// holds, the only address it knows a task by. Each group keeps log order,
// the order an AnswerSet built from the same log keeps, so a sum over a
// group runs in the same order. The log must not change while the index is
// read.
type LogIndex struct {
	names []string        // a worker's ID by handle
	id    func(int32) int // a task's ID by position
	cols  [2]Columns      // the log, then its tail
	n     int             // the answers indexed: the log's, or the log's and the tail's

	workers []string // the distinct workers, sorted
	handles []int32  // their handles, in the same order
	place   []int32  // by handle: the worker's place in workers
	tasks   []int32  // the distinct task positions, ascending
	// The task at tasks[g] has the group byTask[taskFrom[g]:taskTo[g]], the
	// worker at place w the group byWorker[workerFrom[w]:workerTo[w]].
	byTask, taskFrom, taskTo       []int32
	byWorker, workerFrom, workerTo []int32
}

// IndexColumns indexes log followed by tail as one log of fewer than 2^31
// answers — position p < log.Len() is log's p'th answer, the tail's follow —
// without copying either: names gives a worker's ID by handle and id a
// task's by position. A worker answering one task twice is refused with the
// error AnswerSet.Add returns for the same log: the earliest repeat in log
// order. Head is the index of log alone.
func IndexColumns(names []string, id func(int32) int, log, tail Columns) (*LogIndex, error) {
	n := log.Len() + tail.Len()
	x := &LogIndex{names: names, id: id, cols: [2]Columns{log, tail}, n: n, place: make([]int32, len(names))}
	seen := make([]bool, len(names))
	for p := range n {
		if h := x.worker(int32(p)); !seen[h] {
			seen[h] = true
			x.handles = append(x.handles, h)
		}
	}
	slices.SortFunc(x.handles, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	x.workers = make([]string, len(x.handles))
	for w, h := range x.handles {
		x.workers[w], x.place[h] = names[h], int32(w)
	}
	x.byTask = sortByTask(n, x.Task)
	var off []int32 // where each group begins, then n
	for i, p := range x.byTask {
		if t := x.Task(p); i == 0 || t != x.tasks[len(x.tasks)-1] {
			x.tasks, off = append(x.tasks, t), append(off, int32(i))
		}
	}
	off = append(off, int32(n))
	x.taskFrom, x.taskTo = off[:len(off)-1], off[1:]
	x.byWorker, x.workerFrom, x.workerTo = groupBy(n, len(x.workers), func(p int) int32 { return x.WorkerOf(int32(p)) })

	// A repeat is a worker met twice in one task's group; the second meeting
	// is the earliest repeat there, and the log's is the least of those.
	stamp, first := make([]int32, len(names)), n
	for g := range x.tasks {
		for _, p := range x.byTask[x.taskFrom[g]:x.taskTo[g]] {
			h := x.worker(p)
			if stamp[h] == int32(g)+1 {
				first = min(first, int(p))
				break
			}
			stamp[h] = int32(g) + 1
		}
	}
	if first < n {
		return nil, errAnswered(x.At(int32(first)))
	}
	return x, nil
}

// sortByTask returns the positions 0..n-1 stably sorted by their task
// position, a byte of it a pass (LSD radix): each task's answers keep log
// order, and the cost is linear in the answers, whatever the positions.
func sortByTask(n int, task func(p int32) int32) []int32 {
	order, spare := make([]int32, n), make([]int32, n)
	var top int32
	for p := range order {
		order[p] = int32(p)
		top = max(top, task(int32(p)))
	}
	for shift := 0; shift == 0 || top>>shift > 0; shift += 8 {
		var at [257]int32
		for _, p := range order {
			at[task(p)>>shift&0xff+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, p := range order {
			d := task(p) >> shift & 0xff
			spare[at[d]] = p
			at[d]++
		}
		order, spare = spare, order
	}
	return order
}

// groupBy counting-sorts the positions 0..n-1 by key, each group ascending:
// group g is pos[from[g]:to[g]].
func groupBy(n, groups int, key func(p int) int32) (pos, from, to []int32) {
	off := make([]int32, groups+1)
	for p := range n {
		off[key(p)+1]++
	}
	for g := range groups {
		off[g+1] += off[g]
	}
	next := slices.Clone(off[:groups])
	pos = make([]int32, n)
	for p := range n {
		g := key(p)
		pos[next[g]] = int32(p)
		next[g]++
	}
	return pos, off[:groups], off[1:]
}

// Head returns the index of the log without its tail: the same groups, each
// cut where the tail begins, over the tasks and workers the log holds.
func (x *LogIndex) Head() *LogIndex {
	n := x.cols[0].Len()
	if n == x.n {
		return x
	}
	h := *x
	h.n, h.tasks, h.taskFrom, h.taskTo, h.workers, h.handles = n, nil, nil, nil, nil, nil
	cut := func(group []int32) int32 {
		c, _ := slices.BinarySearch(group, int32(n))
		return int32(c)
	}
	for g, t := range x.tasks {
		from := x.taskFrom[g]
		if c := cut(x.byTask[from:x.taskTo[g]]); c > 0 {
			h.tasks, h.taskFrom, h.taskTo = append(h.tasks, t), append(h.taskFrom, from), append(h.taskTo, from+c)
		}
	}
	h.place, h.workerFrom, h.workerTo = make([]int32, len(x.place)), nil, nil
	for w, handle := range x.handles {
		from := x.workerFrom[w]
		if c := cut(x.byWorker[from:x.workerTo[w]]); c > 0 {
			h.place[handle] = int32(len(h.workers))
			h.workers, h.handles = append(h.workers, x.workers[w]), append(h.handles, handle)
			h.workerFrom, h.workerTo = append(h.workerFrom, from), append(h.workerTo, from+c)
		}
	}
	return &h
}

// column returns the columns holding position p and p's place in them.
func (x *LogIndex) column(p int32) (*Columns, int32) {
	if head := int32(x.cols[0].Len()); p >= head {
		return &x.cols[1], p - head
	}
	return &x.cols[0], p
}

// worker returns the handle of the worker who gave answer p.
func (x *LogIndex) worker(p int32) int32 {
	c, i := x.column(p)
	return c.Worker[i]
}

// Len returns the number of answers indexed.
func (x *LogIndex) Len() int { return x.n }

// At returns the answer at log position p, naming its task by ID.
func (x *LogIndex) At(p int32) Answer {
	return Answer{Worker: x.names[x.worker(p)], Task: x.id(x.Task(p)), Choice: x.Choice(p)}
}

// Task returns the position of the task answer p answers.
func (x *LogIndex) Task(p int32) int32 {
	c, i := x.column(p)
	return c.Task[i]
}

// Choice returns the choice answer p makes.
func (x *LogIndex) Choice(p int32) int {
	c, i := x.column(p)
	return int(c.Choice[i])
}

// Workers returns the distinct workers, sorted; w below is a place in it.
// The returned slice must not be modified.
func (x *LogIndex) Workers() []string { return x.workers }

// Tasks returns the positions of the distinct answered tasks, ascending.
// The returned slice must not be modified.
func (x *LogIndex) Tasks() []int32 { return x.tasks }

// WorkerOf returns the place in Workers of the worker who gave answer p.
func (x *LogIndex) WorkerOf(p int32) int32 { return x.place[x.worker(p)] }

// ForTask returns the positions of the answers to the task at position t
// in log order, found by binary search over the answered tasks. The
// returned slice must not be modified.
func (x *LogIndex) ForTask(t int32) []int32 {
	g, ok := slices.BinarySearch(x.tasks, t)
	if !ok {
		return nil
	}
	return x.byTask[x.taskFrom[g]:x.taskTo[g]]
}

// ForWorker returns the positions of the answers of Workers()[w] in log
// order. The returned slice must not be modified.
func (x *LogIndex) ForWorker(w int) []int32 {
	return x.byWorker[x.workerFrom[w]:x.workerTo[w]]
}
