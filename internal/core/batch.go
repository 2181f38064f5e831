// Batched answer submission: N answers checked one by one as Submit checks
// them but committed as ONE WAL record — one write and at most one fsync
// per batch instead of per answer.
//
// The contract has three parts, and the tests hold all of them at once:
//
//   - Equivalence: the writer applies the group record through the one
//     answer-application path (submitOne), item by item, as its replay
//     does, so the resulting state is bit-identical to the same stream
//     submitted individually (TestBatchSubmitEquivalence).
//   - Isolation: items are validated independently, each against the
//     campaign and the items the group holds before it; a rejected item
//     gets its own status and never poisons its neighbors. Only accepted
//     regular answers enter the group record, so replay re-accepts every
//     logged item.
//   - Atomicity: the group is one frame. Under the WAL's torn-tail rule a
//     crash either keeps the whole group or drops the whole group — never
//     a prefix of it (the batched crash-injection variant asserts this).
//
// Golden answers split the group: a golden item flushes the accumulated
// group and then commits its own KindAnswer record, exactly as in
// single-submit mode, so the group precedes it in the log as in memory.
// Steady-state traffic from profiled workers is all regular and pays one
// record per batch.
package core

import (
	"errors"
	"fmt"

	"docs/internal/wal"
)

// BatchItem is one answer inside a batched submit.
type BatchItem struct {
	Worker string
	Task   int
	Choice int
}

// BatchStatus is the per-item outcome of a batched submit. A batch-level
// failure (durability) is returned as SubmitBatch's error instead.
type BatchStatus struct {
	OK  bool
	Err string // rejection reason, empty when OK
}

// batchGroup accumulates the checked regular answers of one SubmitBatch
// call that are not yet logged, already in the columns their record will
// hold, with the task position the check found for each, its place in the
// call's items, and its (worker, task) pairs as items without a choice.
type batchGroup struct {
	cols   wal.ColumnBuilder
	at     []int
	items  []int
	held   map[BatchItem]struct{}
	probes int // lookups holds has made
}

// holds reports whether the group holds the worker's answer to the task:
// one lookup, however many answers the group holds.
func (g *batchGroup) holds(workerID string, taskID int) bool {
	g.probes++
	_, ok := g.held[BatchItem{Worker: workerID, Task: taskID}]
	return ok
}

// add puts the i'th item of the call, checked at task position at, into
// the group.
func (g *batchGroup) add(it BatchItem, at, i int) {
	g.held[BatchItem{Worker: it.Worker, Task: it.Task}] = struct{}{}
	g.cols.Add(it.Worker, it.Task, it.Choice)
	g.at, g.items = append(g.at, at), append(g.items, i)
}

// flush logs the group as one KindBatch record and applies it, on the
// writer; an item whose apply fails (a rerun at its place)
// gets the failure as its status. No-op when the group is empty.
func (g *batchGroup) flush(s *System, statuses []BatchStatus) (wal.Pending, error) {
	if g.cols.Len() == 0 {
		return wal.Pending{}, nil
	}
	cols := g.cols.Columns
	blob, err := wal.EncodeBatch(nil, &cols)
	at, items := g.at, g.items
	g.cols, g.at, g.items = wal.ColumnBuilder{}, nil, nil
	clear(g.held)
	if err != nil {
		return wal.Pending{}, fmt.Errorf("core: %w: %v", ErrDurability, err)
	}
	p, err := s.commit(&entry{Record: wal.Record{Kind: wal.KindBatch, Blob: blob}, cols: &cols, at: at})
	if ie := (*itemError)(nil); errors.As(err, &ie) {
		statuses[items[ie.item]] = BatchStatus{Err: ie.err.Error()}
		err = nil
	}
	return p, err
}

// itemError is the first item of a batch record that failed to apply.
type itemError struct {
	item int
	err  error
}

func (e *itemError) Error() string { return fmt.Sprintf("item %d: %v", e.item+1, e.err) }
func (e *itemError) Unwrap() error { return e.err }

// SubmitBatch records up to len(items) answers, validating each item
// independently and committing all accepted regular answers as one WAL
// record. The returned slice has one status per item, in order. The error
// is batch-level: a durability failure (some or all items are applied in
// memory but could not be promised durable — answer 5xx and stop acking),
// never a per-item rejection.
func (s *System) SubmitBatch(items []BatchItem) ([]BatchStatus, error) {
	if len(items) == 0 {
		return nil, nil
	}
	statuses := make([]BatchStatus, len(items))
	var p wal.Pending
	err := s.do(func() (err error) { p, err = s.submitBatch(items, statuses); return err })
	if err == nil {
		err = s.walCommit(p)
	}
	if err != nil {
		return nil, err
	}
	return statuses, nil
}

// submitBatch checks, logs and applies a batch's items on the writer and
// returns the reservation of the last record it logged.
func (s *System) submitBatch(items []BatchItem, statuses []BatchStatus) (last wal.Pending, err error) {
	g := batchGroup{held: make(map[BatchItem]struct{})}
	logged := func(p wal.Pending, err error) error {
		if p.Seq() > last.Seq() {
			last = p
		}
		return err
	}
	for i, it := range items {
		at, golden, err := s.check(it.Worker, it.Task, it.Choice)
		switch {
		case err != nil:
		case golden:
			if err = logged(g.flush(s, statuses)); err == nil {
				err = logged(s.commit(&entry{Record: wal.Record{Kind: wal.KindAnswer, Worker: it.Worker, Task: it.Task, Choice: it.Choice}, at: []int{at}, golden: true}))
			}
		case g.holds(it.Worker, it.Task):
			err = fmt.Errorf("truth: worker %q already answered task %d", it.Worker, it.Task)
		default:
			if err = logged(s.seedFromStore(it.Worker)); err == nil {
				g.add(it, at, i)
			}
		}
		if errors.Is(err, ErrDurability) {
			return last, err
		}
		if err != nil {
			statuses[i].Err = err.Error()
			continue
		}
		statuses[i].OK = true
	}
	return last, logged(g.flush(s, statuses))
}
