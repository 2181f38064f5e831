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
	"sort"

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

// LogIndex groups an answer log by task and by worker where it lies, as
// int32 positions into it: 16 B an answer while built, 12 B after. Each
// group keeps log order, the order an AnswerSet built from the same log
// keeps, so a sum over a group runs in the same order. The log must not
// change while the index is read.
type LogIndex struct {
	log                []Answer
	workers            []string      // the distinct workers, sorted
	tasks              []int         // the distinct tasks, sorted
	slot               map[int]int32 // task ID -> its place in tasks
	worker             []int32       // worker[p]: log[p]'s worker's place in workers
	byTask, byWorker   []int32       // positions grouped by task / by worker
	taskOff, workerOff []int32       // group g is by...[off[g]:off[g+1]]
}

// IndexLog indexes log, which holds fewer than 2^31 answers. A worker
// answering one task twice is refused with the error AnswerSet.Add returns
// for the same log: the earliest repeat in log order.
func IndexLog(log []Answer) (*LogIndex, error) {
	x := &LogIndex{log: log, slot: make(map[int]int32), worker: make([]int32, len(log))}
	place := make(map[string]int32) // worker -> place in workers
	for _, a := range log {
		if _, ok := place[a.Worker]; !ok {
			place[a.Worker] = 0
			x.workers = append(x.workers, a.Worker)
		}
		if _, ok := x.slot[a.Task]; !ok {
			x.slot[a.Task] = 0
			x.tasks = append(x.tasks, a.Task)
		}
	}
	sort.Strings(x.workers)
	sort.Ints(x.tasks)
	for w, id := range x.workers {
		place[id] = int32(w)
	}
	for t, id := range x.tasks {
		x.slot[id] = int32(t)
	}
	task := make([]int32, len(log))
	for p, a := range log {
		x.worker[p], task[p] = place[a.Worker], x.slot[a.Task]
	}
	x.byTask, x.taskOff = group(task, len(x.tasks))
	x.byWorker, x.workerOff = group(x.worker, len(x.workers))

	// A repeat is a task stamped twice in one worker's group; the first
	// there is the worker's earliest, and the log's is the least of those.
	stamp, first := make([]int32, len(x.tasks)), len(log)
	for w := range x.workers {
		for _, p := range x.ForWorker(w) {
			if stamp[task[p]] == int32(w)+1 {
				first = min(first, int(p))
				break
			}
			stamp[task[p]] = int32(w) + 1
		}
	}
	if first < len(log) {
		return nil, errAnswered(log[first])
	}
	return x, nil
}

// group counting-sorts the positions of key by key, each group ascending:
// group g is pos[off[g]:off[g+1]].
func group(key []int32, groups int) (pos, off []int32) {
	off = make([]int32, groups+1)
	for _, g := range key {
		off[g+1]++
	}
	for g := range groups {
		off[g+1] += off[g]
	}
	next := append([]int32(nil), off[:groups]...)
	pos = make([]int32, len(key))
	for p, g := range key {
		pos[next[g]] = int32(p)
		next[g]++
	}
	return pos, off
}

// Len returns the number of answers indexed.
func (x *LogIndex) Len() int { return len(x.log) }

// At returns the answer at log position p.
func (x *LogIndex) At(p int32) Answer { return x.log[p] }

// Workers returns the distinct workers, sorted; w below is a place in it.
// The returned slice must not be modified.
func (x *LogIndex) Workers() []string { return x.workers }

// Tasks returns the distinct answered tasks, sorted. The returned slice
// must not be modified.
func (x *LogIndex) Tasks() []int { return x.tasks }

// WorkerOf returns the place in Workers of the worker who gave answer p.
func (x *LogIndex) WorkerOf(p int32) int32 { return x.worker[p] }

// ForTask returns the positions of task id's answers in log order. The
// returned slice must not be modified.
func (x *LogIndex) ForTask(id int) []int32 {
	t, ok := x.slot[id]
	if !ok {
		return nil
	}
	return x.byTask[x.taskOff[t]:x.taskOff[t+1]]
}

// ForWorker returns the positions of the answers of Workers()[w] in log
// order. The returned slice must not be modified.
func (x *LogIndex) ForWorker(w int) []int32 {
	return x.byWorker[x.workerOff[w]:x.workerOff[w+1]]
}
