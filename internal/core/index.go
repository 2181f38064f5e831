package core

import (
	"sync"
	"sync/atomic"

	"docs/internal/truth"
)

// candidate is one assignable task in the candidate index: everything the
// OTA hot path needs to evaluate it without touching the campaign maps —
// its ID, its publication position (where the index keeps its truth slot
// and the lease table its counter) and its rest state, which carries its
// (immutable, shared) domain vector and is what it reads until an answer
// materialises it.
type candidate struct {
	id   int
	pos  int
	rest *truth.Rest
}

// candidateArr is one published, immutable generation of the candidate
// index. Concurrent requests share the backing slice; nothing is ever
// written to it after publication.
type candidateArr struct {
	epoch   uint64
	entries []candidate
}

// candidateIndex maintains the open-task set incrementally so Request
// never rediscovers it by scanning all tasks. "Open" means the task can
// still receive assignments: non-golden and, with a redundancy cap, fewer
// accepted answers than AnswersPerTask.
//
// The master slice holds every assignable task in publication order and is
// immutable after Publish; openness is tracked per entry. The serving side
// reads an immutable candidateArr via an atomic pointer — the compacted
// open subset, in the same publication order. Membership maintenance:
//
//   - noteAnswer marks a task closed the moment its redundancy is met (an
//     O(1) event on the Submit path, amortizing the occasional compaction);
//   - resync recomputes openness for every task from the latest truth
//     snapshots (an O(master) pass after each batch rerun, which is the
//     only event that can reopen a task);
//   - closed tasks linger in the published array until enough of them
//     accumulate to justify a compaction, so closure is O(1) amortized.
//     Lingering is harmless: the per-request filter re-checks redundancy
//     against the live snapshot, which it must do anyway for correctness.
//
// Because master order is publication order and both compaction and the
// per-request filter preserve it, the stream of candidates a request sees
// is identical to the full scan's stream — same benefit values, same
// tie-break indices, bit-identical assignments (asserted by
// TestIndexedAssignmentEquivalence).
type candidateIndex struct {
	mu     sync.Mutex
	master []candidate
	pos    map[int]int  // task ID -> master position
	slots  []truth.Slot // parallel to master: filled when a task materialises
	open   []bool       // parallel to master
	stale  int          // closed entries still present in the published array

	openCount atomic.Int64
	epoch     atomic.Uint64
	arr       atomic.Pointer[candidateArr]
}

// staleThreshold reports how many closed-but-still-published entries the
// index tolerates before compacting: a quarter of the published array,
// capped so huge arrays still compact regularly. Compaction is O(array),
// so the amortized cost per closure is O(1) with at most a constant-factor
// overshoot in array length.
func staleThreshold(arrLen int) int {
	t := arrLen / 4
	if t > 256 {
		t = 256
	}
	if t < 1 {
		t = 1
	}
	return t
}

// newCandidateIndex builds the index over the assignable tasks in
// publication order and publishes the first generation. Called from
// Publish with the campaign write lock held, before any request can see
// the tasks.
func newCandidateIndex(master []candidate) *candidateIndex {
	ci := &candidateIndex{
		master: master,
		pos:    make(map[int]int, len(master)),
		slots:  make([]truth.Slot, len(master)),
		open:   make([]bool, len(master)),
	}
	for i, c := range master {
		ci.pos[c.id] = i
		ci.open[i] = true
	}
	ci.openCount.Store(int64(len(master)))
	ci.publishLocked()
	return ci
}

// publishLocked compacts the open subset of master (publication order
// preserved) into a fresh immutable array and publishes it.
func (ci *candidateIndex) publishLocked() {
	entries := make([]candidate, 0, ci.openCount.Load())
	for i, c := range ci.master {
		if ci.open[i] {
			entries = append(entries, c)
		}
	}
	ci.stale = 0
	ci.arr.Store(&candidateArr{epoch: ci.epoch.Add(1), entries: entries})
}

// load returns the current published generation (nil before Publish).
func (ci *candidateIndex) load() *candidateArr { return ci.arr.Load() }

// view returns the candidate's latest truth snapshot: its own once an
// answer materialised the task, else its rest state's.
func (ci *candidateIndex) view(c *candidate) *truth.TaskView {
	if v := ci.slots[c.pos].View(); v != nil {
		return v
	}
	return c.rest.View()
}

// slot returns where the task's materialised state is published, nil for a
// task the index does not hold (a golden one).
func (ci *candidateIndex) slot(id int) *truth.Slot {
	if p, ok := ci.pos[id]; ok {
		return &ci.slots[p]
	}
	return nil
}

// noteAnswer records that the task reached numAnswers accepted answers,
// closing it when the redundancy cap is met. O(1) except when the stale
// count crosses the compaction threshold.
func (ci *candidateIndex) noteAnswer(id, numAnswers, redundancy int) {
	if redundancy <= 0 || numAnswers < redundancy {
		return
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	p, ok := ci.pos[id]
	if !ok || !ci.open[p] {
		return
	}
	ci.open[p] = false
	ci.openCount.Add(-1)
	ci.stale++
	if arr := ci.arr.Load(); ci.stale >= staleThreshold(len(arr.entries)) {
		ci.publishLocked()
	}
}

// resync recomputes every task's openness from its latest truth snapshot
// and republishes if anything changed. The batch rerun calls this after
// Reseed: a rerun is the only mutation that can change a task's answer
// count non-monotonically, so this is the reopen path (and a safety net
// for any closure the incremental path missed).
func (ci *candidateIndex) resync(redundancy int) {
	ci.mu.Lock()
	defer ci.mu.Unlock()
	changed := false
	for i := range ci.master {
		open := redundancy <= 0 || ci.view(&ci.master[i]).NumAnswers < redundancy
		if ci.open[i] != open {
			ci.open[i] = open
			if open {
				ci.openCount.Add(1)
			} else {
				ci.openCount.Add(-1)
			}
			changed = true
		}
	}
	if changed || ci.stale > 0 {
		ci.publishLocked()
	}
}
