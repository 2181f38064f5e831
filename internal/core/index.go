package core

import (
	"sync/atomic"

	"docs/internal/truth"
)

// candidateArr is one published, immutable generation of the candidate
// index: the open tasks' positions, ascending. Concurrent requests share
// the backing slice; nothing is ever written to it after publication.
type candidateArr struct {
	epoch   uint64
	entries []int32
}

// candidateIndex maintains the open-task set incrementally so Request
// never rediscovers it by scanning all tasks. "Open" means the task can
// still receive assignments: non-golden and, with a redundancy cap, fewer
// accepted answers than AnswersPerTask.
//
// A candidate is a publication position: the index keeps, by position, the
// task's ID and the rest state a latent task reads (which carries its
// immutable, shared domain vector and its ℓ: what inference reads of it,
// its row), whether it is golden (a golden task is no candidate), the truth
// slot its first answer fills and its openness, all set once at Publish.
// The serving side reads an immutable candidateArr via an atomic pointer —
// the open positions, ascending. Membership maintenance, on the writer:
//
//   - noteAnswer marks a task closed the moment its redundancy is met (an
//     O(1) event on the Submit path, amortizing the occasional compaction);
//   - resync recomputes openness for every task from the latest truth
//     snapshots (an O(tasks) pass after each batch rerun, which is the
//     only event that can reopen a task);
//   - closed tasks linger in the published array until enough of them
//     accumulate to justify a compaction, so closure is O(1) amortized.
//     Lingering is harmless: the per-request filter re-checks redundancy
//     against the live snapshot, which it must do anyway for correctness.
//
// Because positions ascend in publication order and both compaction and
// the per-request filter preserve it, the stream of candidates a request
// sees is identical to the full scan's stream — same benefit values, same
// tie-break indices, bit-identical assignments (asserted by
// TestIndexedAssignmentEquivalence).
type candidateIndex struct {
	ids    []int         // the publication's task IDs, by position (shared, read-only)
	rests  []*truth.Rest // by position
	golden []bool        // by position (shared, read-only)
	slots  []truth.Slot  // by position: filled when a task materialises
	open   []bool        // by position; the writer's alone
	stale  int           // closed entries still present in the published array

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

// newCandidateIndex builds the index over a publication — its task IDs,
// each task's rest state and golden flag, by position — and publishes the
// first generation. Called as the publication installs, before any request
// can see the tasks.
func newCandidateIndex(ids []int, rests []*truth.Rest, golden []bool) *candidateIndex {
	ci := &candidateIndex{ids: ids, rests: rests, golden: golden, slots: make([]truth.Slot, len(rests)), open: make([]bool, len(rests))}
	for p := range rests {
		if ci.open[p] = !golden[p]; ci.open[p] {
			ci.openCount.Add(1)
		}
	}
	ci.publish()
	return ci
}

// publish compacts the open positions (ascending) into a fresh
// immutable array and publishes it.
func (ci *candidateIndex) publish() {
	entries := make([]int32, 0, ci.openCount.Load())
	for p, open := range ci.open {
		if open {
			entries = append(entries, int32(p))
		}
	}
	ci.stale = 0
	ci.arr.Store(&candidateArr{epoch: ci.epoch.Add(1), entries: entries})
}

// load returns the current published generation (nil before Publish).
func (ci *candidateIndex) load() *candidateArr { return ci.arr.Load() }

// row returns what inference reads of the task at position p.
func (ci *candidateIndex) row(p int) truth.Row {
	return truth.Row{ID: ci.ids[p], R: ci.rests[p].R, Ell: int32(ci.rests[p].Ell), P: int32(p)}
}

// view returns the latest truth snapshot of the candidate at position p:
// its own once an answer materialised the task, else its rest state's.
func (ci *candidateIndex) view(p int32) *truth.TaskView {
	if v := ci.slots[p].View(); v != nil {
		return v
	}
	return ci.rests[p].View()
}

// noteAnswer records that the task at position p reached numAnswers
// accepted answers, closing it when the redundancy cap is met. O(1) except
// when the stale count crosses the compaction threshold.
func (ci *candidateIndex) noteAnswer(p, numAnswers, redundancy int) {
	if redundancy <= 0 || numAnswers < redundancy {
		return
	}
	if !ci.open[p] {
		return
	}
	ci.open[p] = false
	ci.openCount.Add(-1)
	ci.stale++
	if arr := ci.arr.Load(); ci.stale >= staleThreshold(len(arr.entries)) {
		ci.publish()
	}
}

// resync recomputes every task's openness from its latest truth snapshot
// and republishes if anything changed. The batch rerun calls this after
// Reseed: a rerun is the only mutation that can change a task's answer
// count non-monotonically, so this is the reopen path (and a safety net
// for any closure the incremental path missed).
func (ci *candidateIndex) resync(redundancy int) {
	changed := false
	for p, golden := range ci.golden {
		if golden {
			continue
		}
		open := redundancy <= 0 || ci.view(int32(p)).NumAnswers < redundancy
		if ci.open[p] != open {
			ci.open[p] = open
			if open {
				ci.openCount.Add(1)
			} else {
				ci.openCount.Add(-1)
			}
			changed = true
		}
	}
	if changed || ci.stale > 0 {
		ci.publish()
	}
}
