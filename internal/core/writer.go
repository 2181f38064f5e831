// The campaign's one writer: every mutation is applied, in arrival order, by
// one goroutine.
//
// A publish, a submit, a batch of submits, a worker-profile seed and a
// lease's grant, release or expiry reach the writer as calls (do). For a
// logged mutation the writer checks the record against the campaign,
// reserves it in the WAL and applies it through applyRecord, the same
// function a boot replays the log through (commit), and hands the caller
// the reservation, which the caller waits on outside the writer so that
// concurrent callers share one group commit. A periodic rerun runs
// inside the submit that reaches its boundary, as its replay runs it, so
// the live state is the serial replay of the log by construction. A
// campaign's life ends on its writer too: Close and Hibernate are its last
// call (shut), and a call that reaches it later gets ErrStopped.
//
// Readers do not call the writer. Request's scan, Result, Published and
// Stats' counters load what the writer publishes: the campaign pointer
// (immutable once published), the candidate index's epoch-versioned array,
// the truth engine's task views and worker statistics, and atomic
// counters. What only the writer reads — the answer log, the lease table,
// a worker's anchor — a reader that needs it (Results, Fingerprint)
// captures on the writer in one call and works on the copy.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"docs/internal/model"
	"docs/internal/truth"
	"docs/internal/wal"
)

// ErrStopped is what a serving call gets when it reaches a campaign's writer
// after the writer has stopped (the campaign hibernated, archived, failed
// or closed under it): the call applied nothing.
var ErrStopped = errors.New("core: the campaign's writer has stopped")

// call is one mutation handed to the writer; done is signalled when f has
// run.
type call struct {
	f    func()
	done chan struct{}
}

var calls = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// write is the writer goroutine: it runs each call to completion, in the
// order they arrive, until one of them ends it (shut).
func (s *System) write() {
	defer close(s.halted)
	for !s.ended {
		c := <-s.ops
		c.f()
		c.done <- struct{}{}
	}
}

// do runs f on the writer and returns f's error once it has run, or
// ErrStopped, without running f, once the writer has stopped. The writer
// itself never calls do.
func (s *System) do(f func() error) (err error) {
	c := calls.Get().(*call)
	c.f = func() { err = f() }
	select {
	case s.ops <- c:
		<-c.done
	case <-s.halted:
		err = ErrStopped
	}
	c.f = nil
	calls.Put(c)
	return err
}

// read runs f on the writer, or on the caller once the writer has stopped:
// a diagnostic read (Fingerprint, Stats, Answers) of a stopped campaign has
// nothing left to race.
func (s *System) read(f func()) {
	if s.do(func() error { f(); return nil }) != nil {
		f()
	}
}

// shut ends the campaign: it runs final and closes the WAL as the writer's
// last call, so nothing is logged past what they see, and returns final's
// error, else the close's. A stopped system shuts as a no-op.
func (s *System) shut(final func() error) (err error) {
	_ = s.do(func() error {
		s.ended, err = true, final()
		if s.wal != nil {
			if cerr := s.wal.Close(); err == nil {
				err = cerr
			}
		}
		return nil
	})
	return err
}

// entry is one log record as the writer applies it: the record, the body a
// live mutation already holds decoded (applyRecord decodes a replayed
// one's), and the reservation that makes it durable — zero in a replay and
// without a WAL.
type entry struct {
	wal.Record
	pub      *publication // KindPublish
	cols     *wal.Columns // KindBatch
	seed     *truth.Stats // KindSeed
	profiled bool         // KindSeed
	// at is each answer's task position and golden whether a KindAnswer's
	// task is golden, as the live check found them: nil in a replay, whose
	// answers are checked as they apply.
	at      []int
	golden  bool
	pending wal.Pending
}

// commit reserves e's record in the WAL, when one is armed, and applies it
// through applyRecord. It runs on the writer, for a record whose checks
// have passed, so the record applies live exactly as its replay will.
func (s *System) commit(e *entry) (wal.Pending, error) {
	if s.wal != nil {
		p, err := s.wal.Reserve(e.Record)
		if err != nil {
			return wal.Pending{}, fmt.Errorf("core: %w: %v", ErrDurability, err)
		}
		e.pending, e.Seq = p, p.Seq()
	}
	return e.pending, s.applyRecord(e)
}

// check holds an answer against the campaign as it stands — a known task, a
// choice in range, the worker's first answer to it — and returns the task's
// position and whether it is golden. The writer checks a live answer before
// it logs it, and a replayed one before it applies it: each answer once.
func (s *System) check(workerID string, taskID, choice int) (p int, golden bool, err error) {
	s.checks++
	c := s.pub.Load()
	p, ok := c.position(taskID)
	switch {
	case workerID == "":
		err = fmt.Errorf("core: empty worker ID")
	case !ok:
		err = fmt.Errorf("core: unknown task %d", taskID)
	case choice < 0 || choice >= c.ell(p):
		err = fmt.Errorf("core: choice %d out of range for task %d", choice, taskID)
	case c.golden[p]:
		if ws := s.stateOf(workerID); ws != nil && slices.ContainsFunc(ws.goldenAnswers(), func(a goldenAnswer) bool { return int(a.p) == p }) {
			err = fmt.Errorf("core: worker %q already answered golden task %d", workerID, taskID)
		}
		return p, true, err
	default:
		if h, ok := s.inc.Handle(workerID); ok && c.ci.view(int32(p)).Answered(h) {
			err = fmt.Errorf("truth: worker %q already answered task %d", workerID, taskID)
		}
	}
	return p, false, err
}

// submit logs and applies one live answer, on the writer: a regular answer
// of a worker the truth engine does not know yet is preceded by their store
// seed (seedFromStore), which the answer's later reservation covers.
func (s *System) submit(workerID string, taskID, choice int) (wal.Pending, error) {
	p, golden, err := s.check(workerID, taskID, choice)
	if err != nil {
		return wal.Pending{}, err
	}
	if !golden {
		if _, err := s.seedFromStore(workerID); err != nil {
			return wal.Pending{}, err
		}
	}
	return s.commit(&entry{Record: wal.Record{Kind: wal.KindAnswer, Worker: workerID, Task: taskID, Choice: choice}, at: []int{p}, golden: golden})
}

// seedFromStore seeds a worker the truth engine does not know yet with the
// long-run store's statistics, if it has any, before their first regular
// answer: the seed is logged, so a replay installs the bits the store held
// now, whatever it holds at boot. On the writer.
func (s *System) seedFromStore(workerID string) (wal.Pending, error) {
	if s.inc.Quality(workerID, nil) {
		return wal.Pending{}, nil
	}
	st, ok := s.store.Worker(workerID)
	if !ok {
		return wal.Pending{}, nil
	}
	return s.commitSeed(workerID, st, false)
}

// commitSeed logs and applies a seed of store statistics, with the profiled
// flag when the worker adopts them as their profile. On the writer.
func (s *System) commitSeed(workerID string, st *truth.Stats, profiled bool) (wal.Pending, error) {
	blob, err := encodeSeed(st, profiled)
	if err != nil {
		return wal.Pending{}, err
	}
	return s.commit(&entry{Record: wal.Record{Kind: wal.KindSeed, Worker: workerID, Blob: blob}, seed: st, profiled: profiled})
}

// logPrefix returns the answer log as it stands, without copying it. The
// log is append-only (submitOne appends, nothing else writes it), so
// columns capped at its length are a snapshot: a later append lands past
// the cap or in new backing arrays. On the writer.
func (s *System) logPrefix() model.Columns { return s.log.Capped() }
