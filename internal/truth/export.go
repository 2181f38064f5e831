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
// slices are private copies. Like every mutation it runs on the engine's
// writer — the serving core calls it in a snapshot pass, after the last
// record the writer applied.
func (inc *Incremental) ExportTasks() []TaskState {
	its := slices.Clone(inc.made)
	slices.SortFunc(its, func(a, b *incTask) int { return cmp.Compare(a.id, b.id) })
	var out []TaskState
	for _, it := range its {
		if it.touched {
			out = append(out, TaskState{ID: it.id, MHat: cloneMatrix(it.mhat), S: mathx.Clone(it.s)})
		}
	}
	return out
}

// RestoreTask overwrites the internal inference state of task t, found
// through its slot, with an exported one — raw numerators and probabilistic
// truth — and republishes the task's immutable view over the answers it
// holds, materialising a latent t first. The caller has checked the
// state against t, as the snapshot's check does where it enters: one row
// of ℓ numerators per domain of t's support, and ℓ floats of s.
func (inc *Incremental) RestoreTask(t Row, slot *Slot, ts TaskState) {
	it := slot.it.Load()
	if it == nil {
		inc.Materialise(t, slot)
		it = slot.it.Load()
	}
	it.own()
	for k := range it.mhat {
		copy(it.mhat[k], ts.MHat[k])
	}
	it.s = mathx.Clone(ts.S)
	it.touched = true
	it.publishView(inc.epoch.Add(1), normalizeRows(it.mhat))
}
