// Durability: the orchestrator's write-ahead logging and crash recovery.
//
// When a WAL is armed (Recover), every accepted mutation — the campaign
// publication, each golden or regular answer, and each worker-profile
// seed adopted from the long-run store — is reserved in the log
// under the same lock that orders the in-memory answer log, so the durable
// order equals the order the serial-replay equivalence proofs are anchored
// to. Submit acknowledges only after the record's group-commit batch is
// down. Recovery replays the log's segments through the ordinary
// Publish/Submit path with the last periodic rerun forced synchronous (each
// rerun overwrites the ones before it), which reconstructs the exact
// deterministic serial state.
package core

import (
	"errors"
	"fmt"
	"time"

	"docs/internal/wal"
)

// ErrDurability marks failures of the durability promise itself — the WAL
// could not accept or flush a record — as opposed to validation errors.
// It is fail-stop: the mutation is applied in memory but not in the log,
// so the system must serve nothing more — close it and Recover its
// directory, which is what the registry does before the next call. Callers
// (the HTTP server) use the distinction to answer 5xx instead of 4xx.
var ErrDurability = errors.New("durability failure")

// RecoveryInfo describes what a Recover call replayed.
type RecoveryInfo struct {
	// Enabled is true once a WAL is armed.
	Enabled bool `json:"-"`
	// Records is the records the boot replayed in full. With a snapshot
	// this counts only the records past it: those up to it ran no
	// answer's math.
	Records int `json:"recovered_records"`
	// TornTail is true when the final segment ended in a torn record that
	// was dropped (the crash interrupted an unacknowledged append).
	TornTail bool `json:"recovered_torn_tail"`
	// LastSeq is the sequence number serving resumed from.
	LastSeq uint64 `json:"-"`
	// SnapshotUsed is true when the boot installed a state snapshot's
	// numbers at SnapshotSeq instead of running the math of the answers up
	// to it.
	SnapshotUsed bool `json:"recovered_from_snapshot"`
	// SnapshotSeq is the WAL sequence the installed snapshot covered.
	SnapshotSeq uint64 `json:"recovery_snapshot_seq"`
	// SnapshotRejected carries the reason a present snapshot was NOT used —
	// torn, corrupt, at odds with the publication, or claiming sequences
	// past the durable log — in which case the boot ran the full replay
	// (losing time, never state). Empty when no snapshot existed or it was
	// used.
	SnapshotRejected string `json:"recovery_snapshot_rejected,omitempty"`
	// Duration is the wall-clock cost of the replay — the recovery lag a
	// restarted server paid before it could serve again.
	Duration time.Duration `json:"-"`
}

// Recover arms the write-ahead log at dir, first replaying any state a
// previous process left there: every intact WAL record, through the
// ordinary Publish/Submit path (replay). The last periodic batch rerun
// runs synchronously during replay even when Config.AsyncRerun is set, so
// the recovered state is the deterministic serial state of the logged
// stream — bit-identical to an uninterrupted serial run, which the
// crash-injection tests assert record by record.
//
// Recover must be called once, before any Publish or Submit (it refuses
// otherwise). After it returns, every subsequent accepted mutation is
// appended to the log with group-commit batching.
func (s *System) Recover(dir string) (RecoveryInfo, error) {
	if dir == "" {
		return RecoveryInfo{}, fmt.Errorf("core: empty WAL directory")
	}
	s.mu.RLock()
	published := len(s.ids) > 0
	s.mu.RUnlock()
	if published || s.submissions.Load() != 0 || s.wal != nil {
		return RecoveryInfo{}, fmt.Errorf("core: Recover must run once, before serving")
	}

	//docs:allow clock recovery duration is diagnostic metadata, never replayed or fingerprinted
	start := time.Now()
	info, err := s.replay(dir)
	if err != nil {
		return info, fmt.Errorf("core: WAL replay: %w", err)
	}

	log, err := wal.Open(dir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Sync:         s.cfg.WALSync,
	})
	if err != nil {
		return info, err
	}
	s.wal = log
	s.walDir = dir
	info.Enabled = true
	//docs:allow clock recovery duration is diagnostic metadata, never replayed or fingerprinted
	s.since = time.Now()
	info.Duration = s.since.Sub(start)
	s.recovery, s.replayed = info, s.submissions.Load()
	return info, nil
}

// replay rebuilds the serial state a virgin system's directory holds, in
// replay mode (no re-logging, no store seeds, reruns synchronous). It is the
// one way a campaign comes back into memory — a boot (Recover) and a
// snapshot pass's scratch replica both run it — and it applies every record
// from sequence 1 through the ordinary serving path. A regular answer skips
// the engine math (submitOne) that a later overwrite in the same replay
// replaces: the last periodic rerun the log reaches (rerunFrom), which
// overwrites every rerun and every answer's math before it, and the newest
// usable snapshot, whose numbers are installed when the replay reaches the
// record it covers; the reruns at boundaries the snapshot covers do not run.
// The snapshot is checked against the publication as soon as its record
// applies; a torn, corrupt, invalid or log-overreaching snapshot is
// rejected LOUDLY (RecoveryInfo.SnapshotRejected) and the replay runs in
// full — it then costs time, never state.
func (s *System) replay(dir string) (RecoveryInfo, error) {
	var info RecoveryInfo
	s.recovering = true
	defer func() { s.recovering, s.rerunFrom, s.covered = false, 0, false }()

	snap, reject := loadUsableSnapshot(dir)
	info.SnapshotRejected = reject
	var install func() // set once snap is checked
	st, err := wal.Replay(dir, func(rec wal.Record) error {
		s.covered = install != nil && rec.Seq <= snap.Seq
		if err := s.applyRecord(rec); err != nil {
			return err
		}
		if rec.Kind == wal.KindPublish {
			var err error
			if s.rerunFrom, err = s.lastRerun(dir); err != nil {
				return err
			}
			if snap != nil {
				if install, err = s.checkSnapshot(snap, rec.Seq); err != nil {
					info.SnapshotRejected, snap = err.Error(), nil
				}
			}
		}
		if install != nil && rec.Seq == snap.Seq {
			install()
			info.SnapshotUsed, info.SnapshotSeq = true, snap.Seq
			s.snapSeq.Store(snap.Seq)
		}
		return nil
	})
	if err == nil && snap != nil && !info.SnapshotUsed {
		info.SnapshotRejected = fmt.Sprintf("snapshot covers seq %d, which no publish record precedes", snap.Seq)
	}
	// The log is gapless from sequence 1: the records past the snapshot are
	// the ones the boot paid to replay in full.
	info.Records, info.LastSeq, info.TornTail = st.Records-int(info.SnapshotSeq), st.LastSeq, st.TornTail
	return info, err
}

// lastRerun returns the last rerun boundary the campaign's log reaches. The
// golden set, in place once the publication is, says which single answers
// are regular. A count can only come out long if an answer fails to apply,
// and that fails the replay.
func (s *System) lastRerun(dir string) (int64, error) {
	z := int64(s.cfg.RerunEvery)
	if z <= 0 {
		return 0, nil
	}
	s.mu.RLock()
	order, golden := s.taskOrder, s.golden
	s.mu.RUnlock()
	var n int64
	_, err := wal.Replay(dir, func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindAnswer:
			if p, ok := order.position(rec.Task); !ok || !golden[p] {
				n++
			}
		case wal.KindBatch:
			cols, err := wal.DecodeBatch(rec.Blob)
			if err != nil {
				return fmt.Errorf("batch record %d: bad body: %w", rec.Seq, err)
			}
			n += int64(cols.Len())
		case wal.KindPublish, wal.KindSeed, wal.KindStore:
			// No answer here; the apply scan refuses a store record.
		}
		return nil
	})
	return n / z * z, err
}

// Recovery returns what the last Recover call replayed (zero value when no
// WAL is armed).
func (s *System) Recovery() RecoveryInfo { return s.recovery }

// applyRecord replays one durable record through the ordinary serving path.
// The WAL is nil during recovery, so the replay does not re-log.
//
// This is THE replay entry point — a boot and a snapshot pass both funnel
// through it (replay) — so docs-lint roots its determinism analysis here:
// everything it reaches must replay bit-identically.
//
//docs:deterministic
func (s *System) applyRecord(rec wal.Record) error {
	if answerBearing(rec.Kind) {
		s.answerSeq.Store(rec.Seq)
	}
	switch rec.Kind {
	case wal.KindPublish:
		// The record's tasks all carry their domain vector, so the replay
		// links no text; publishDecoded checks them as a publish does.
		pub, err := decodePublication(rec, s.m)
		if err != nil {
			return err
		}
		if err := s.publishDecoded(pub); err != nil {
			return fmt.Errorf("publish record %d: %w", rec.Seq, err)
		}
	case wal.KindAnswer:
		if err := s.Submit(rec.Worker, rec.Task, rec.Choice); err != nil {
			return fmt.Errorf("answer record %d: %w", rec.Seq, err)
		}
	case wal.KindBatch:
		// A batched submit: expand the group and replay every item through
		// the ordinary Submit path. Items were each accepted when logged
		// (rejected items never enter the record), so a rejection here means
		// the log is corrupt and must fail loudly. Per-item Submit keeps the
		// rerun cadence identical to the live batched run.
		cols, err := wal.DecodeBatch(rec.Blob)
		if err != nil {
			return fmt.Errorf("batch record %d: bad body: %w", rec.Seq, err)
		}
		for i, wi := range cols.W {
			if err := s.Submit(cols.Workers[wi], cols.T[i], cols.C[i]); err != nil {
				return fmt.Errorf("batch record %d item %d: %w", rec.Seq, i+1, err)
			}
		}
		s.batches.Add(1)
		s.batchAnswers.Add(int64(cols.Len()))
	case wal.KindSeed:
		// A worker-profile seed: re-install the exact float64 bits the live
		// system adopted from the long-run store, at the same point in the
		// record order. The store itself is not consulted — its boot-time
		// contents may postdate this read.
		if rec.Worker == "" {
			return fmt.Errorf("seed record %d has no worker", rec.Seq)
		}
		st, profiled, err := decodeSeed(rec.Blob, s.m)
		if err != nil {
			return fmt.Errorf("seed record %d: %w", rec.Seq, err)
		}
		s.applySeed(rec.Worker, st, profiled)
	case wal.KindStore:
		// Only a worker store's log holds these: the directory is a store,
		// not a campaign, and replaying it as one would serve nothing.
		return fmt.Errorf("record %d is a worker-store update: this is a store log, not a campaign log", rec.Seq)
	default:
		return fmt.Errorf("record %d has unknown kind %d", rec.Seq, rec.Kind)
	}
	return nil
}

// walReserve queues one record for the armed WAL. Callers hold logMu
// (directly or transitively), which makes reservation order — and
// therefore durable replay order — equal to the in-memory answer-log
// order. Returns a zero Pending when no WAL is armed.
func (s *System) walReserve(rec wal.Record) (wal.Pending, error) {
	if s.wal == nil {
		return wal.Pending{}, nil
	}
	p, err := s.wal.Reserve(rec)
	if err != nil {
		return wal.Pending{}, fmt.Errorf("core: %w: %v", ErrDurability, err)
	}
	if answerBearing(rec.Kind) {
		s.answerSeq.Store(p.Seq())
	}
	return p, nil
}

// answerBearing reports whether replaying a record of this kind runs
// inference: an answer or a batch of them. A publication or a seed only
// installs the bits it carries.
func answerBearing(k wal.Kind) bool { return k == wal.KindAnswer || k == wal.KindBatch }

// walCommit waits for a reservation's group-commit batch. A zero Pending
// (no WAL) is a no-op.
func (s *System) walCommit(p wal.Pending) error {
	if err := p.Wait(); err != nil {
		// The mutation is already applied in memory; what failed is the
		// durability promise. Surface it so the caller stops this system.
		return fmt.Errorf("core: %w: %v", ErrDurability, err)
	}
	return nil
}
