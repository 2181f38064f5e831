package truth

import (
	"cmp"
	"slices"

	"docs/internal/mathx"
)

// TaskState is one task's complete recoverable inference state, exported
// for state snapshots: the raw (rescaled) truth-matrix numerators M̂ the
// incremental updates multiply into — one row per domain of the task's
// support, ascending, like every truth matrix — and the probabilistic truth
// s. The
// normalized M and the argmax truth are derived and are not exported; the
// task's accepted answers, V(i), are the engine's before a restore (Record
// puts a replayed one there).
type TaskState struct {
	ID   int
	MHat [][]float64
	S    []float64
}

// ExportTasks returns the internal inference state of every materialised
// task touched since it was materialised — answered, reseeded by a rerun,
// or restored — sorted by task ID. A latent task, and a materialised one
// still at the rest state it was materialised at, is left out: its state is
// the rest state the engine derives from the task and whether a rerun has
// landed, which a restore re-derives (ReseedLatent). RestoreTask marks a task
// touched, so the exported set is the same before and after a restore. All
// slices are private copies. The export is a consistent cut only on a
// quiescent engine — the serving core calls it on a snapshot pass's scratch
// replica, which nothing mutates concurrently.
func (inc *Incremental) ExportTasks() []TaskState {
	inc.restMu.RLock()
	its := slices.Clone(inc.made)
	inc.restMu.RUnlock()
	slices.SortFunc(its, func(a, b *incTask) int { return cmp.Compare(a.id, b.id) })
	var out []TaskState
	for _, it := range its {
		it.mu.Lock()
		if it.touched {
			out = append(out, TaskState{ID: it.id, MHat: cloneMatrix(it.mhat), S: mathx.Clone(it.s)})
		}
		it.mu.Unlock()
	}
	return out
}

// RestoreTask overwrites the internal inference state of task t, found
// through its slot, with an exported one — raw numerators and probabilistic
// truth — and republishes the task's immutable view over the answers it
// holds, materialising a latent t first. A latent t — which holds no
// answers — whose exported state is, bit for bit, the rest state it reads
// stays latent: a snapshot written before tasks were latent lists every
// task a rerun left unanswered, at that state. The caller has checked the
// state against t, as the snapshot's check does where it enters: one row
// of ℓ numerators per domain of t's support, and ℓ floats of s.
func (inc *Incremental) RestoreTask(t Row, slot *Slot, ts TaskState) {
	it := slot.it.Load()
	if it == nil {
		if inc.atRest(t, ts) {
			return
		}
		inc.Materialise(t, slot)
		it = slot.it.Load()
	}
	it.mu.Lock()
	it.own()
	for k := range it.mhat {
		copy(it.mhat[k], ts.MHat[k])
	}
	it.s = mathx.Clone(ts.S)
	it.touched = true
	it.publishView(inc.epoch.Add(1), normalizeRows(it.mhat))
	it.mu.Unlock()
}

// atRest reports whether ts is, bit for bit, the state a latent t reads now.
func (inc *Incremental) atRest(t Row, ts TaskState) bool {
	rest := inc.Rest(t.R, int(t.Ell))
	mhat, s := rest.states.prior.mhat, rest.prior.S
	if rest.reseeded.Load() != nil {
		mhat, s = rest.states.reseeded.mhat, rest.states.uniform
	}
	if !sameBits(ts.S, s) {
		return false
	}
	for x := range mhat {
		if !sameBits(ts.MHat[x], mhat[x]) {
			return false
		}
	}
	return true
}
