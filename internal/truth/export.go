package truth

import (
	"fmt"
	"sort"

	"docs/internal/mathx"
	"docs/internal/model"
)

// TaskState is one task's complete recoverable inference state, exported
// for state snapshots: the raw (rescaled) truth-matrix numerators M̂ the
// incremental updates multiply into — one row per domain of the task's
// support, ascending, like every truth matrix — and the probabilistic truth
// s. The
// normalized M and the argmax truth are derived and are not exported; the
// task's accepted answers are restored from the orchestrator's
// chronological answer log, of which they are exactly the per-task
// subsequence.
type TaskState struct {
	ID   int
	MHat [][]float64
	S    []float64
}

// ExportTasks returns the internal inference state of every task touched
// since AddTask registered it — answered, reseeded by a rerun, or restored
// — sorted by task ID. An untouched task is left out: its state is the
// prior AddTask derives from the task alone, which a restore re-derives by
// registering it. RestoreTask marks a task touched, so the exported set is
// the same before and after a restore. All slices are private copies. The
// export is a consistent cut only on a quiescent engine — the serving core
// calls it on a snapshot pass's scratch replica, which nothing mutates
// concurrently.
func (inc *Incremental) ExportTasks() []TaskState {
	inc.mu.RLock()
	ids := make([]int, 0, len(inc.tasks))
	for id := range inc.tasks {
		ids = append(ids, id)
	}
	inc.mu.RUnlock()
	sort.Ints(ids)
	var out []TaskState
	for _, id := range ids {
		it := inc.lookup(id)
		if it == nil {
			continue
		}
		it.mu.Lock()
		if it.touched {
			out = append(out, TaskState{ID: id, MHat: cloneMatrix(it.mhat), S: mathx.Clone(it.s)})
		}
		it.mu.Unlock()
	}
	return out
}

// RestoreTask overwrites a registered task's internal inference state with
// an exported one — raw numerators, probabilistic truth, and the task's
// accepted answers in chronological order — and republishes the task's
// immutable view. The dimensions must match the registered task exactly;
// answer validity (choice range, known workers) is the caller's to check
// before mutating anything.
func (inc *Incremental) RestoreTask(ts TaskState, answers []model.Answer) error {
	it := inc.lookup(ts.ID)
	if it == nil {
		return fmt.Errorf("truth: restore of unknown task %d", ts.ID)
	}
	ell := it.task.NumChoices()
	if rows := it.task.Domain.Support(); len(ts.MHat) != rows {
		return fmt.Errorf("truth: task %d restore has %d domain rows, want the %d of its support", ts.ID, len(ts.MHat), rows)
	}
	for k, row := range ts.MHat {
		if len(row) != ell {
			return fmt.Errorf("truth: task %d restore row %d has %d choices, want %d", ts.ID, k, len(row), ell)
		}
	}
	if len(ts.S) != ell {
		return fmt.Errorf("truth: task %d restore s has %d choices, want %d", ts.ID, len(ts.S), ell)
	}
	it.mu.Lock()
	it.own()
	for k := range it.mhat {
		copy(it.mhat[k], ts.MHat[k])
	}
	it.s = mathx.Clone(ts.S)
	it.answers = append(it.answers[:0], answers...)
	it.touched = true
	it.publishView(inc.epoch.Add(1), normalizeRows(it.mhat))
	it.mu.Unlock()
	return nil
}
