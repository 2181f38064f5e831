// Campaign hibernation: release a quiescent system's memory while making
// the next boot as cheap as possible.
//
// Hibernate is Close plus one promise: before the memory is released, a
// final state snapshot covering the ENTIRE durable log is written through
// the same scratch-boot pass the background snapshot worker runs
// (the live concurrent system is never serialized — its state is not the
// canonical serial-replay state). A later Recover then restores the
// snapshot and replays an empty WAL suffix, so waking a hibernated
// campaign costs O(restore), not O(campaign history).
//
// The failure direction is chosen deliberately: every step after the WAL
// fsync only affects WAKE TIME, never state. A crash or error between the
// fsync and the snapshot write leaves the previous snapshot (or none) and
// the full log — the next boot replays a longer suffix and recovers the
// identical state. The hibernate-path crash suite in internal/registry
// asserts that bit-exactly at each step.
package core

import "fmt"

// Hibernate drains the system and closes it like Close, but first fsyncs
// the WAL and writes a final state snapshot covering every record the log
// holds, so the next Recover restores the snapshot and replays nothing.
// It returns an error when the final snapshot could not be written or
// does not cover the log's tail; the system is closed and its state is
// durable in the WAL either way — a failed Hibernate degrades the next
// wake to a longer replay, it never loses state. Requires an armed WAL:
// a memory-only campaign released from memory would simply be gone.
//
// The caller is responsible for quiescence: no Publish/Submit/Request may
// be in flight. A straggler racing the drain either commits before the
// final WAL fsync (and is covered by the snapshot or replayed from the
// suffix) or fails with ErrDurability and is never acknowledged.
func (s *System) Hibernate() error {
	if s.wal == nil {
		return fmt.Errorf("core: Hibernate needs an armed WAL")
	}
	// Stop the background rerun and snapshot workers; pending nudges
	// drain first, exactly as in Close.
	s.closed.Do(func() { close(s.quit) })
	s.wg.Wait()

	// Everything reserved so far must be power-loss durable before the
	// final snapshot pass reads the log: the pass replays the on-disk
	// stream, and the snapshot may only ever cover durable records.
	snapErr := s.wal.Sync()
	if snapErr == nil {
		// The snapshot worker has exited, so running the pass on this
		// goroutine is race-free. A campaign that took no record since the
		// snapshot it booted from (or last wrote) costs nothing here: the
		// pass returns before building anything.
		snapErr = s.snapshotPass()
	}
	if snapErr == nil {
		// Verify-covering-seq: the written snapshot must cover the log's
		// tail, or the wake would pay a suffix replay we claimed to have
		// eliminated. (A mismatch means records landed after the drain —
		// the caller broke quiescence — and is surfaced loudly.)
		if covered, tail := s.snapSeq.Load(), s.wal.ReservedSeq(); covered != tail {
			snapErr = fmt.Errorf("final snapshot covers seq %d but the log ends at %d", covered, tail)
		}
	}
	// Release everything regardless: Close is idempotent past the
	// closed.Once above and flushes + fsyncs the WAL again on its way out.
	closeErr := s.Close()
	if snapErr != nil {
		return fmt.Errorf("core: hibernate snapshot: %w", snapErr)
	}
	return closeErr
}
