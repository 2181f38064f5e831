// Batched answer submission: N answers applied one by one through the
// ordinary Submit path but committed as ONE WAL record — one write and at
// most one fsync per batch instead of per answer.
//
// The contract has three parts, and the tests hold all of them at once:
//
//   - Equivalence: every item runs the exact per-answer sequence Submit
//     runs (validation, ingest, chronological log append, rerun
//     cadence), so the resulting state is bit-identical to the
//     same stream submitted individually (TestBatchSubmitEquivalence).
//   - Isolation: items are validated independently; a rejected item gets
//     its own status and never poisons its neighbors. Only accepted
//     regular answers enter the group record, so replay re-accepts every
//     logged item.
//   - Atomicity: the group is one frame. Under the WAL's torn-tail rule a
//     crash either keeps the whole group or drops the whole group — never
//     a prefix of it (the batched crash-injection variant asserts this).
//
// Golden answers split the group: their durability must still precede the
// profiling merge (see Submit), so a golden item flushes the accumulated
// group and then commits its own KindAnswer record, exactly as in
// single-submit mode. Steady-state traffic from profiled workers is all
// regular and pays one record per batch.
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

// batchGroup accumulates the accepted regular answers that have been
// applied in memory but not yet reserved in the log, already in the columns
// their record will hold. It is local to one SubmitBatch call; appends
// happen under logMu (see submitOne) so the group's internal order equals
// the chronological log order.
type batchGroup struct {
	cols wal.ColumnBuilder
}

// flush reserves the accumulated answers as one KindBatch record and waits
// for its group-commit batch. No-op when the group is empty; with no WAL
// armed the record goes nowhere (walReserve returns a zero Pending and
// walCommit ignores it). This is the one place a group record comes to be,
// so it is where the batch counters count: one batch per record, and the
// answers inside it — what a replay of the log counts again.
func (g *batchGroup) flush(s *System) error {
	n := g.cols.Len()
	if n == 0 {
		return nil
	}
	blob, err := wal.EncodeBatch(nil, &g.cols.Columns)
	g.cols = wal.ColumnBuilder{}
	if err != nil {
		return fmt.Errorf("core: %w: %v", ErrDurability, err)
	}
	s.logMu.Lock()
	p, err := s.walReserve(wal.Record{Kind: wal.KindBatch, Blob: blob})
	s.logMu.Unlock()
	if err != nil {
		return err
	}
	s.batches.Add(1)
	s.batchAnswers.Add(int64(n))
	return s.walCommit(p)
}

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
	var g batchGroup
	for i, it := range items {
		if err := s.submitOne(it.Worker, it.Task, it.Choice, &g); err != nil {
			if errors.Is(err, ErrDurability) {
				return nil, err
			}
			statuses[i].Err = err.Error()
			continue
		}
		statuses[i].OK = true
	}
	if err := g.flush(s); err != nil {
		return nil, err
	}
	return statuses, nil
}
