// Campaign hibernation: release a quiescent system's memory while keeping
// the next boot cheap.
//
// Hibernate is Close plus one promise: when the memory is released, no
// answer lies past the newest state snapshot. If one does, a final snapshot
// is written through a scratch-boot pass (the live system is never
// serialized: its asynchronous reruns swap in where the serial replay's do
// not); this is the only place a snapshot is written. If none does — the
// campaign was only published, or only handed out tasks since it last woke — nothing
// is written: the answers past the newest snapshot are none, and the
// publication and worker seeds replay without running inference. A later
// Recover then replays the log without any answer's math and installs the
// snapshot's numbers (if any), so waking a hibernated campaign costs one
// pass over its records, not the campaign's inference history.
//
// The failure direction is chosen deliberately: every step after the WAL
// fsync only affects WAKE TIME, never state. A crash or error between the
// fsync and the snapshot write leaves the previous snapshot (or none) and
// the full log — the next boot runs the math of more answers and recovers
// the identical state. The hibernate-path crash suite in internal/registry
// asserts that bit-exactly at each step.
package core

import "fmt"

// Hibernate drains the system and closes it like Close, but first makes
// the WAL power-loss durable (a no-op when it already is) and, if an answer
// lies past the newest state snapshot, writes a final snapshot covering the
// log, so the next Recover runs no answer's math; an answer-free suffix
// writes nothing. It returns an error when the final snapshot could not be written
// or an answer still lies past it; the system is closed and its state is
// durable in the WAL either way — a failed Hibernate degrades the next
// wake to a longer replay, it never loses state. Requires an armed WAL:
// a memory-only campaign released from memory would simply be gone.
//
// No call may be in flight. The registry guarantees it: it hibernates a
// campaign only under the campaign's write lock, which every call holds
// for reading while it runs.
func (s *System) Hibernate() error {
	if s.wal == nil {
		return fmt.Errorf("core: Hibernate needs an armed WAL")
	}
	// Stop the background rerun worker and the writer; a pending nudge
	// drains first, exactly as in Close.
	s.stop()

	// Everything reserved so far must be power-loss durable before the
	// final snapshot pass reads the log: the pass replays the on-disk
	// stream, and the snapshot may only ever cover durable records.
	snapErr := s.wal.Sync()
	if snapErr == nil {
		snapErr = s.snapshotPass()
	}
	if snapErr == nil && s.unsnapshottedAnswers() {
		// An answer landed after the pass read the log (the caller broke
		// quiescence): the wake would pay the replay we claimed to have
		// eliminated, so it is surfaced loudly.
		snapErr = fmt.Errorf("final snapshot covers seq %d but an answer was logged at %d", s.snapSeq.Load(), s.answerSeq.Load())
	}
	// Release everything regardless: Close is idempotent past the stop
	// above and flushes the WAL again on its way out.
	closeErr := s.Close()
	if snapErr != nil {
		return fmt.Errorf("core: hibernate snapshot: %w", snapErr)
	}
	return closeErr
}
