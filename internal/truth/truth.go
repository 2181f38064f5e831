// Package truth implements the Truth Inference (TI) module of DOCS
// (Section 4 of the paper).
//
// Given tasks with domain vectors and the workers' collected answers, TI
// jointly estimates each task's probabilistic truth s_i and each worker's
// per-domain quality vector q^w by alternating two steps until convergence:
//
//	Step 1 (q^w → s_i): per-domain truth matrices M^(i) via Equations 3–4,
//	        then s_i = r^{t_i} × M^(i) (Equation 2);
//	Step 2 (s_i → q^w): expected per-domain accuracy via Equation 5.
//
// The package also provides the incremental single-answer update of
// Section 4.2 (see Incremental) and the long-run quality maintenance rule of
// Theorem 1 (see Stats.Merge). A task has one address here, its position
// (Row.P, Pin, model.LogIndex, Slot); the offline entry points — Infer,
// AddTask, Submit, View — name tasks by ID and find them through an
// ID-sorted permutation, not a map.
package truth

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"docs/internal/mathx"
	"docs/internal/model"
)

// Default inference parameters.
const (
	// DefaultMaxIter bounds the iterations; the paper observes convergence
	// well within 20.
	DefaultMaxIter = 20
	// DefaultEpsilon is the Δ threshold below which iteration stops.
	DefaultEpsilon = 1e-4
	// DefaultQuality initializes workers with no golden-task history; 0.7 is
	// the usual "better than random, below expert" crowdsourcing prior.
	DefaultQuality = 0.7
	// qualityFloor / qualityCeil clamp worker qualities inside (0,1) so the
	// likelihoods in Equation 4 never degenerate to hard 0/1.
	qualityFloor = 0.01
	qualityCeil  = 0.99
)

// Row is what inference reads of a task: its ID, its domain vector r over
// the m domains, its choice count ℓ and its position P — the address an
// answer index (model.LogIndex) and the engine know it by. A serving
// campaign holds its tasks as table positions, not model.Tasks, and hands
// inference these, each at its publication position. ℓ and P take 4 B
// each, so a row is 40 B.
type Row struct {
	ID     int
	R      model.DomainVector
	Ell, P int32
}

// RowOf returns what inference reads of t, at position p.
func RowOf(p int, t *model.Task) Row { return Row{t.ID, t.Domain, int32(t.NumChoices()), int32(p)} }

// RowsOf returns what inference reads of each task, each at its index in
// tasks.
func RowsOf(tasks []*model.Task) []Row {
	rows := make([]Row, len(tasks))
	for i, t := range tasks {
		rows[i] = RowOf(i, t)
	}
	return rows
}

// byPosition returns the indexes of tasks ordered by their rows' positions.
func byPosition(tasks []Row) []int32 {
	order := make([]int32, len(tasks))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(tasks[a].P, tasks[b].P) })
	return order
}

// Options configures Infer.
type Options struct {
	// MaxIter bounds the number of iterations (default DefaultMaxIter).
	MaxIter int
	// Epsilon stops iteration once the parameter change Δ falls below it
	// (default DefaultEpsilon). Zero means "use the default"; set negative
	// to force exactly MaxIter iterations (used by the convergence figure).
	Epsilon float64
	// InitQuality seeds worker qualities, typically from golden tasks
	// (Section 5.2). Workers absent from the map start at DefaultQuality.
	InitQuality map[string]model.QualityVector
	// RecordDeltas retains the per-iteration Δ sequence in Result.Deltas
	// (Figure 4(a)).
	RecordDeltas bool
	// Pinned lists known ground truths (golden tasks) by ascending task
	// position. Pinned tasks keep a one-hot probabilistic truth throughout
	// the iteration, so they anchor the worker-quality scale: without an
	// anchor the EM has a mirrored fixed point per domain in which truths
	// flip and good workers' qualities collapse toward zero.
	Pinned []Pin
	// Unlisted counts the tasks with no answer and no pin the run covers
	// without listing them: they move nothing, but Δ's mean counts them, so
	// the run is the bits of one listing them. For Incremental.Reseed, a
	// Result with Unlisted > 0 covers every task the slice leaves out.
	Unlisted int
}

// Pin is a known ground truth: the task at position P has truth Truth.
type Pin struct{ P, Truth int32 }

// Result holds the output of Infer.
type Result struct {
	// S[i] is task i's probabilistic truth s_i (indexed by position in the
	// task slice passed to Infer).
	S [][]float64
	// M[i] is task i's per-domain truth matrix M^(i), one row of ℓ_i floats
	// per domain in the task's support (r_k > 0, see model.DomainVector.Has)
	// in ascending domain order and nothing else: a row with r_k = 0 is
	// multiplied by zero wherever it is read, so it is neither computed nor
	// held. The matrices of unanswered tasks alias one process-wide
	// read-only uniform matrix per (rows, ℓ), and their S one read-only
	// Uniform(ℓ): read them, never write them.
	M [][][]float64
	// Truth[i] is argmax_j S[i][j], the inferred truth v*_i.
	Truth []int
	// Quality maps each answering worker to the estimated quality vector.
	Quality map[string]model.QualityVector
	// Iterations is the number of iterations executed.
	Iterations int
	// Deltas is the per-iteration parameter change (if recorded).
	Deltas []float64

	// rows are the tasks the result is over, row each indexed answer's row
	// (for SessionStats) and unlisted Options.Unlisted.
	rows     []Row
	row      []int32
	unlisted int
}

// Over returns the result over all, which holds every task r lists, found
// by position: those take r's state, every other task the state Infer gives
// an unanswered one — the shared uniform matrix of its support and
// Uniform(ℓ), read-only. Quality, Iterations and Deltas are r's.
func (r *Result) Over(all []Row) *Result {
	out := &Result{S: make([][]float64, len(all)), M: make([][][]float64, len(all)), Truth: make([]int, len(all)),
		Quality: r.Quality, Iterations: r.Iterations, Deltas: r.Deltas}
	listed := byPosition(r.rows)
	for i, t := range all {
		if x, ok := slices.BinarySearchFunc(listed, t.P, func(j, p int32) int { return cmp.Compare(r.rows[j].P, p) }); ok {
			j := listed[x]
			out.S[i], out.M[i], out.Truth[i] = r.S[j], r.M[j], r.Truth[j]
			continue
		}
		rest := restStatesFor(t.R.Support(), int(t.Ell))
		out.S[i], out.M[i], out.Truth[i] = rest.uniform, rest.reseeded.mhat, mathx.ArgMax(rest.uniform)
	}
	return out
}

// Infer runs the iterative truth-inference algorithm over the given tasks
// and answers. Every task must carry a domain vector of size m. Tasks with
// no answers receive a uniform probabilistic truth: the rest state a rerun
// leaves them at, shared, not a copy each. A task's position is its index
// in tasks: Options.Pinned names it so.
//
// The cost is a function of the answered tasks and of the domains they
// relate to. A pinned task is one-hot and an unanswered one uniform for the
// whole run, so both are settled before the loop and only the active
// (answered, unpinned) tasks are iterated; an unanswered task costs its
// slots in the result slices. An active task costs
// |supp r|·ℓ per iteration, not m·ℓ: Step 1 computes the rows of its support
// and Step 2 adds its r_k-weighted evidence at those domains only — every
// term left out is a multiplication by zero. Everything the loop touches is
// allocated once per call. The floating-point operations that remain, and
// their order, are those of the dense textbook formulation kept in
// reference_test.go, so S, Truth, Quality, Iterations, Deltas and every
// support row of M are the same bits.
func Infer(tasks []*model.Task, answers *model.AnswerSet, m int, opt Options) (*Result, error) {
	for _, t := range tasks {
		if t.Domain == nil {
			return nil, fmt.Errorf("truth: task %d has no domain vector (run DVE first)", t.ID)
		}
		if err := t.Validate(m); err != nil {
			return nil, err
		}
	}
	idx, err := IndexAnswers(tasks, answers.All())
	if err != nil {
		return nil, err
	}
	return InferIndex(RowsOf(tasks), idx, m, opt)
}

// IndexAnswers indexes answers that name their tasks by ID at the tasks'
// positions, each task's index in tasks as RowsOf lays them out: the
// offline form of the serving core's answer log, which names a task by
// position already. An answer's task is found by binary search over the
// tasks in ID order — tasks itself when the IDs ascend, else an ID-sorted
// permutation of it. Tasks repeating an ID, an answer to an ID no task has
// (the least such ID is named), then a choice out of range (on the least
// such task, the first in log order) and a worker answering a task twice
// are refused.
func IndexAnswers(tasks []*model.Task, answers []model.Answer) (*model.LogIndex, error) {
	id := func(p int32) int { return tasks[p].ID }
	var byID []int32 // nil while the IDs ascend
	if !slices.IsSortedFunc(tasks, func(a, b *model.Task) int { return cmp.Compare(a.ID, b.ID) }) {
		byID = make([]int32, len(tasks))
		for p := range byID {
			byID[p] = int32(p)
		}
		slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(id(a), id(b)) })
	}
	at := func(x int) int32 { // the position x'th in ID order
		if byID == nil {
			return int32(x)
		}
		return byID[x]
	}
	for x := 1; x < len(tasks); x++ {
		if id(at(x)) == id(at(x-1)) {
			return nil, fmt.Errorf("truth: duplicate task ID %d", id(at(x)))
		}
	}
	var names []string
	var cols model.Columns
	var bad *model.Answer // the first answer choosing out of range on the least such task
	handle, unknown, missing, badEll := map[string]int32{}, 0, false, 0
	for i, a := range answers {
		x, ok := sort.Find(len(tasks), func(x int) int { return cmp.Compare(a.Task, id(at(x))) })
		if !ok {
			if !missing || a.Task < unknown {
				unknown, missing = a.Task, true
			}
			continue
		}
		if ell := tasks[at(x)].NumChoices(); (a.Choice < 0 || a.Choice >= ell) && (bad == nil || a.Task < bad.Task) {
			bad, badEll = &answers[i], ell
		}
		h, seen := handle[a.Worker]
		if !seen {
			h = int32(len(names))
			handle[a.Worker], names = h, append(names, a.Worker)
		}
		cols = cols.Append(h, at(x), int32(a.Choice))
	}
	if missing {
		return nil, fmt.Errorf("truth: answers reference unknown task %d", unknown)
	}
	if bad != nil {
		return nil, fmt.Errorf("truth: worker %q chose %d on task %d with %d choices", bad.Worker, bad.Choice, bad.Task, badEll)
	}
	return model.IndexColumns(names, id, cols, model.Columns{})
}

// InferIndex is Infer over an answer log read where it lies, for task rows
// at distinct positions that the caller has validated over m domains, and
// answers to those rows with choices in range: a serving campaign's, whose
// publication's decode checked the rows once and whose engine took each
// answer, or IndexAnswers'.
func InferIndex(tasks []Row, answers *model.LogIndex, m int, opt Options) (*Result, error) {
	if opt.MaxIter <= 0 {
		opt.MaxIter = DefaultMaxIter
	}
	if opt.Epsilon == 0 {
		opt.Epsilon = DefaultEpsilon
	}
	for x := 1; x < len(opt.Pinned); x++ {
		if opt.Pinned[x].P <= opt.Pinned[x-1].P {
			return nil, fmt.Errorf("truth: pinned positions %d and %d not ascending", opt.Pinned[x-1].P, opt.Pinned[x].P)
		}
	}
	// Each answer's task's row, and each pin's (−1 while none is found).
	row := rowsOfAnswers(tasks, answers)
	pinRow := make([]int, len(opt.Pinned))
	for x := range pinRow {
		pinRow[x] = -1
	}
	// Over the tasks that get a state of their own (answered or pinned):
	// sLen is Σ ℓ, mRows Σ |supp r|, mLen the floats those rows hold,
	// maxRows the largest support and wLen Σ |supp r|·|V(i)|, the weights
	// Step 2 reads.
	sLen, mRows, mLen, maxRows, wLen := 0, 0, 0, 0, 0
	for i, t := range tasks {
		x, pinned := pinOf(opt.Pinned, t.P)
		if pinned {
			pinRow[x] = i
		}
		if v := answers.ForTask(t.P); pinned || len(v) > 0 {
			n, ell := t.R.Support(), int(t.Ell)
			mRows += n
			mLen += n * ell
			maxRows = max(maxRows, n)
			wLen += n * len(v)
			sLen += ell
		}
	}
	for x, pin := range opt.Pinned {
		i := pinRow[x]
		if i < 0 {
			return nil, fmt.Errorf("truth: pinned truth for unknown task position %d", pin.P)
		}
		if pin.Truth < 0 || pin.Truth >= tasks[i].Ell {
			return nil, fmt.Errorf("truth: pinned truth %d out of range for task %d", pin.Truth, tasks[i].ID)
		}
	}

	// Worker qualities live in one worker-major [W×m] array. Workers are
	// processed in sorted order everywhere below: map iteration order would
	// otherwise reorder the floating-point accumulation in the convergence
	// metric and make runs differ in the last ulp — enough to flip an early
	// stop and change downstream assignment decisions.
	workers := answers.Workers()
	q := make([]float64, len(workers)*m)
	for wi, w := range workers {
		qw := q[wi*m : (wi+1)*m]
		if init, ok := opt.InitQuality[w]; ok {
			copy(qw, init)
			continue
		}
		for k := range qw {
			qw[k] = DefaultQuality
		}
	}

	// Settle the pinned and unanswered tasks and lay out the active ones.
	res := &Result{
		S:        make([][]float64, len(tasks)),
		M:        make([][][]float64, len(tasks)),
		Truth:    make([]int, len(tasks)),
		rows:     tasks,
		row:      row,
		unlisted: opt.Unlisted,
	}
	sBuf := make([]float64, sLen)
	mBuf := make([]float64, mLen)
	rows := make([][]float64, mRows)
	supp := make([]int32, 0, mRows)
	var (
		active  = make([]activeTask, 0, len(answers.Tasks()))
		taskAns = make([]taskAnswer, 0, answers.Len())
		prevLen int // Σ ℓ over active tasks
		// The distinct ℓ, numbered in first-seen order: by ℓ, 1 + its number
		// (0 while unseen), and per number 1/ℓ, the shared uniform matrices by row count (fetched when
		// an unanswered task of that support first asks), float64(ℓ−1), and
		// answersEll[d*W+w] = worker w has answered an active task of the
		// d'th ℓ.
		ellIdx     []int
		invEll     []float64
		rest       [][]*restStates
		wrongDiv   []float64
		answersEll []bool
		maxEll     int
	)
	for i, t := range tasks {
		ell := int(t.Ell)
		for len(ellIdx) <= ell {
			ellIdx = append(ellIdx, 0)
		}
		d := ellIdx[ell] - 1
		if d < 0 {
			d = len(rest)
			ellIdx[ell] = d + 1
			invEll = append(invEll, 1.0/float64(ell))
			rest = append(rest, nil)
			wrongDiv = append(wrongDiv, float64(ell-1))
			answersEll = append(answersEll, make([]bool, len(workers))...)
			maxEll = max(maxEll, ell)
		}
		x, pinned := pinOf(opt.Pinned, t.P)
		v := answers.ForTask(t.P)
		if !pinned && len(v) == 0 {
			n := t.R.Support()
			for len(rest[d]) <= n {
				rest[d] = append(rest[d], nil)
			}
			if rest[d][n] == nil {
				rest[d][n] = restStatesFor(n, ell)
			}
			res.M[i], res.S[i] = rest[d][n].reseeded.mhat, rest[d][n].uniform
			continue
		}
		s := sBuf[:ell:ell]
		sBuf = sBuf[ell:]
		res.S[i] = s
		if !pinned {
			for j := range s {
				s[j] = invEll[d]
			}
		}
		// The task's support, ascending: row x of M is domain ks[x].
		from := len(supp)
		for k := range t.R {
			if t.R.Has(k) {
				supp = append(supp, int32(k))
			}
		}
		ks := supp[from:len(supp):len(supp)]
		M := rows[:len(ks):len(ks)]
		rows = rows[len(ks):]
		for x := range M {
			M[x] = mBuf[:ell:ell]
			mBuf = mBuf[ell:]
		}
		res.M[i] = M
		if pinned {
			pv := int(opt.Pinned[x].Truth)
			s[pv] = 1
			for x := range M {
				M[x][pv] = 1
			}
			continue
		}
		from = len(taskAns)
		for _, p := range v {
			w := answers.WorkerOf(p)
			taskAns = append(taskAns, taskAnswer{w: w, choice: int32(answers.Choice(p))})
			answersEll[d*len(workers)+int(w)] = true
		}
		active = append(active, activeTask{i: i, d: d, supp: ks, answers: taskAns[from:len(taskAns):len(taskAns)]})
		prevLen += ell
	}

	// Each worker's answers as (task index, choice, the task's support as
	// (domain, r_k) pairs laid end to end in wK/wR), and the Step-2
	// denominators Σ r_k, which no iteration changes.
	workerAns := make([]workerAnswer, 0, answers.Len())
	workerEnd := make([]int, len(workers))
	wK, wR := make([]int32, 0, wLen), make([]float64, 0, wLen)
	den := make([]float64, len(q))
	for wi := range workers {
		dw := den[wi*m : (wi+1)*m]
		for _, p := range answers.ForWorker(wi) {
			i := row[p]
			from := len(wK)
			r := tasks[i].R
			for k, rk := range r {
				if r.Has(k) {
					wK, wR = append(wK, int32(k)), append(wR, rk)
					dw[k] += rk
				}
			}
			workerAns = append(workerAns, workerAnswer{i: int32(i), choice: int32(answers.Choice(p)), rows: int32(len(wK) - from)})
		}
		workerEnd[wi] = len(workerAns)
	}

	var (
		prevS      = make([]float64, prevLen)
		prevQ      = make([]float64, len(q))
		logCorrect = make([]float64, len(q))               // log q^w_k
		logWrong   = make([]float64, len(wrongDiv)*len(q)) // log((1−q^w_k)/(ℓ−1)) per distinct ℓ
		logRows    = make([]float64, maxRows*maxEll)
		num        = make([]float64, m)
	)
	for iter := 0; iter < opt.MaxIter; iter++ {
		off := 0
		for _, at := range active {
			off += copy(prevS[off:], res.S[at.i])
		}
		copy(prevQ, q)

		// The two logarithms of Equation 4 depend on (worker, domain, ℓ)
		// only: tabulate them once per iteration instead of once per
		// (answer, domain) — and only for the ℓ a worker has answered, so
		// the table never costs more logarithms than the answers did. Step 1
		// reads the table at a domain of a task the worker answered, which is
		// exactly where her Step-2 denominator is non-zero: the rest of the
		// table is never filled.
		for wi := range workers {
			for x := wi * m; x < (wi+1)*m; x++ {
				if den[x] == 0 {
					continue
				}
				qk := clampQ(q[x])
				logCorrect[x] = math.Log(qk)
				for d, div := range wrongDiv {
					if answersEll[d*len(workers)+wi] {
						logWrong[d*len(q)+x] = math.Log((1 - qk) / div)
					}
				}
			}
		}

		// Step 1: q^w → s_i, for the active tasks.
		for _, at := range active {
			s, M := res.S[at.i], res.M[at.i]
			truthMatrix(M, at.supp, m, at.answers, logCorrect, logWrong[at.d*len(q):], logRows[:len(M)*len(s)])
			applyDomain(s, tasks[at.i].R, M)
		}

		// Step 2: s_i → q^w.
		from, off := 0, 0
		for wi, to := range workerEnd {
			clear(num)
			for _, a := range workerAns[from:to] {
				sa := res.S[a.i][a.choice]
				end := off + int(a.rows)
				for ; off < end; off++ {
					num[wK[off]] += wR[off] * sa
				}
			}
			from = to
			qw, dw := q[wi*m:(wi+1)*m], den[wi*m:(wi+1)*m]
			for k := range qw {
				if dw[k] > 0 {
					qw[k] = num[k] / dw[k]
				}
				// Domains the worker never touched keep their previous value
				// (the paper's maintenance keeps them at the stored prior).
			}
		}

		res.Iterations = iter + 1
		delta := paramDelta(res.S, prevS, active, len(tasks)+opt.Unlisted, q, prevQ, m)
		if opt.RecordDeltas {
			res.Deltas = append(res.Deltas, delta)
		}
		if delta < opt.Epsilon {
			break
		}
	}

	for i := range res.S {
		res.Truth[i] = mathx.ArgMax(res.S[i])
	}
	res.Quality = make(map[string]model.QualityVector, len(workers))
	for wi, w := range workers {
		res.Quality[w] = q[wi*m : (wi+1)*m : (wi+1)*m]
	}
	return res, nil
}

// pinOf returns the index in pins of the pin at position p, if any.
func pinOf(pins []Pin, p int32) (int, bool) {
	return slices.BinarySearchFunc(pins, p, func(pin Pin, p int32) int { return cmp.Compare(pin.P, p) })
}

// rowsOfAnswers returns, for each answer the index holds, the index in
// tasks of its task's row, −1 for an answer to a task tasks does not list.
func rowsOfAnswers(tasks []Row, answers *model.LogIndex) []int32 {
	row := make([]int32, answers.Len())
	for p := range row {
		row[p] = -1
	}
	for i, t := range tasks {
		for _, p := range answers.ForTask(t.P) {
			row[p] = int32(i)
		}
	}
	return row
}

// activeTask is an answered, unpinned task: the only kind the loop visits.
type activeTask struct {
	i       int          // index into the task slice
	d       int          // index of the task's ℓ among the distinct ℓ
	supp    []int32      // the domains with r_k > 0, ascending: M's rows
	answers []taskAnswer // V(i) in submission order
}

// taskAnswer is one answer as Step 1 reads it; workerAnswer as Step 2 does,
// rows being the size of the task's support.
type taskAnswer struct{ w, choice int32 }
type workerAnswer struct{ i, choice, rows int32 }

// truthMatrix computes M^(i) (Equations 3–4) into M: row x is the truth
// distribution conditioned on the task's true domain being supp[x].
// Likelihoods are accumulated in log space so large answer sets cannot
// underflow; logRows is the |supp|×ℓ scratch they accumulate in, and the log
// tables are worker-major over m domains.
func truthMatrix(M [][]float64, supp []int32, m int, v []taskAnswer, logCorrect, logWrong, logRows []float64) {
	ell := len(M[0])
	clear(logRows)
	for _, a := range v {
		base, choice := int(a.w)*m, int(a.choice)
		for x, k := range supp {
			correct, wrong := logCorrect[base+int(k)], logWrong[base+int(k)]
			logRow := logRows[x*ell : (x+1)*ell]
			for j := range logRow {
				if j == choice {
					logRow[j] += correct
				} else {
					logRow[j] += wrong
				}
			}
		}
	}
	for x, row := range M {
		softmax(row, logRows[x*ell:(x+1)*ell])
	}
}

// applyDomain computes s = r × M (Equation 2) into s, M holding the rows of
// r's support.
func applyDomain(s []float64, r model.DomainVector, M [][]float64) {
	clear(s)
	x := 0
	for k, rk := range r {
		if !r.Has(k) {
			continue
		}
		row := M[x]
		x++
		for j := range s {
			s[j] += rk * row[j]
		}
	}
	mathx.Normalize(s)
}

// softmax exponentiates and normalizes a log-weight vector stably into out.
func softmax(out, logw []float64) {
	max := logw[0]
	for _, x := range logw[1:] {
		if x > max {
			max = x
		}
	}
	var sum float64
	for i, x := range logw {
		out[i] = math.Exp(x - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
}

func clampQ(q float64) float64 {
	if q < qualityFloor {
		return qualityFloor
	}
	if q > qualityCeil {
		return qualityCeil
	}
	return q
}

// paramDelta is the convergence metric Δ of Section 6.3: the mean absolute
// change of the probabilistic truths plus the mean absolute change of the
// worker qualities. Only active tasks can move, and a settled task's term
// is exactly +0, so the sum runs over the active set and the mean over all
// nTasks.
func paramDelta(s [][]float64, prevS []float64, active []activeTask, nTasks int, q, prevQ []float64, m int) float64 {
	var ds float64
	for _, at := range active {
		si := s[at.i]
		ds += mathx.L1Distance(si, prevS[:len(si)]) / float64(len(si))
		prevS = prevS[len(si):]
	}
	if nTasks > 0 {
		ds /= float64(nTasks)
	}
	var dq float64
	for x := 0; x < len(q); x += m {
		dq += mathx.L1Distance(q[x:x+m], prevQ[x:x+m])
	}
	if len(q) > 0 {
		dq /= float64(len(q))
	}
	return ds + dq
}

// Accuracy returns the fraction of tasks with known ground truth whose
// inferred truth matches it. Tasks without ground truth are skipped; the
// second return value is the number of evaluated tasks.
func Accuracy(tasks []*model.Task, inferred []int) (float64, int) {
	correct, total := 0, 0
	for i, t := range tasks {
		if t.Truth == model.NoTruth {
			continue
		}
		total++
		if i < len(inferred) && inferred[i] == t.Truth {
			correct++
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(correct) / float64(total), total
}
