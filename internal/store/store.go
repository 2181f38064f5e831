// Package store persists DOCS's long-run parameters: each worker's quality
// vector q^w and weight vector u^w (Section 4.2, Theorem 1). The paper keeps
// these in the system's SQL database so workers returning for a later
// requester's tasks start from their history; here the store is an
// in-memory map persisted as a checkpoint plus a delta log, safe for
// concurrent use by the HTTP server.
//
// # On-disk layout
//
// The checkpoint at `path` is a JSON snapshot, always replaced atomically
// (wal.WriteFileAtomic, staged at `path+".tmp"`), so a crash mid-save leaves
// the previous checkpoint intact. Between saves, every Merge and Put also
// appends one CRC-framed JSON record to `path+".delta"`, so a crash loses
// no update that ever returned success — the seed rewrote the whole JSON
// file on Save only, leaving everything since the last Save to die with
// the process. Open loads the checkpoint and replays the delta log; a torn
// final delta (the crash interrupted the append) is dropped and cut off the
// file before anything is appended behind it, torn data anywhere else is
// corruption. Save folds the deltas into a fresh
// checkpoint and resets the log.
//
// Replaying a delta twice would double-count a Merge, so checkpoint and
// deltas carry a generation number: Save bumps it, and Open skips deltas
// older than the checkpoint's generation — which is exactly the crash
// window between the checkpoint rename and the delta-log reset.
//
// Golden-profiling merges go through MergeProfile, which additionally
// records each merge under a caller-chosen profile ID (one per
// campaign×worker) together with the post-merge statistics. The record
// makes the merge idempotent across campaign-log replays — crash
// recovery and every snapshot pass re-drive the same gauntlet
// completion through the same code path — and lets a merge whose delta
// died with the process be repaired bit-exactly from the replay.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"

	"docs/internal/truth"
	"docs/internal/wal"
)

// Store holds per-worker statistics, keyed by platform worker ID.
type Store struct {
	mu      sync.RWMutex
	m       int
	workers map[string]*truth.Stats
	// profiles records every profiling merge that was ever applied, keyed
	// by a caller-chosen profile ID (one per campaign×worker), mapping to
	// the post-merge statistics the merge produced. MergeProfile consults
	// it to apply each profiling merge exactly once no matter how many
	// times the same campaign event is replayed (live, crash recovery,
	// snapshot passes), and returns the recorded value so every replica
	// anchors on identical bits.
	profiles map[string]*truth.Stats
	path     string
	gen      uint64   // bumped by every Save; tags delta records
	deltaF   *os.File // append-only delta log, nil for memory-only stores
}

// snapshot is the checkpoint JSON wire format.
type snapshot struct {
	M        int                     `json:"m"`
	Gen      uint64                  `json:"gen,omitempty"`
	Workers  map[string]*truth.Stats `json:"workers"`
	Profiles map[string]*truth.Stats `json:"profiles,omitempty"`
}

// delta is one logged update. A "profile" delta carries the merged session
// stats plus the profile ID; the recorded post-merge anchor is recomputed
// on replay (deltas re-apply in order onto the checkpointed state, so the
// recomputation is bit-identical to the original).
type delta struct {
	Gen   uint64       `json:"gen"`
	Op    string       `json:"op"` // "merge", "put" or "profile"
	ID    string       `json:"id"`
	PID   string       `json:"pid,omitempty"` // profile ID, op "profile" only
	Stats *truth.Stats `json:"stats"`
}

// Open creates a store over m domains. If path is non-empty the checkpoint
// (if present) is loaded and the delta log replayed; Save writes back to
// the same path. An empty path keeps the store memory-only.
func Open(path string, m int) (*Store, error) {
	if m <= 0 {
		return nil, fmt.Errorf("store: m = %d, want > 0", m)
	}
	s := &Store{m: m, workers: make(map[string]*truth.Stats), profiles: make(map[string]*truth.Stats), path: path}
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// fresh store
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	default:
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("store: corrupt snapshot %s: %w", path, err)
		}
		if snap.M != m {
			return nil, fmt.Errorf("store: snapshot has m=%d, want %d", snap.M, m)
		}
		for w, st := range snap.Workers {
			if err := st.Validate(m); err != nil {
				return nil, fmt.Errorf("store: worker %q: %w", w, err)
			}
			s.workers[w] = st
		}
		for pid, st := range snap.Profiles {
			if err := st.Validate(m); err != nil {
				return nil, fmt.Errorf("store: profile %q: %w", pid, err)
			}
			s.profiles[pid] = st
		}
		s.gen = snap.Gen
	}
	f, err := os.OpenFile(s.deltaPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.deltaF = f
	if err := s.replayDeltas(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) deltaPath() string { return s.path + ".delta" }

// Persistent reports whether the store is file-backed: its contents
// survive the process, so replay-style recovery must not re-apply merges
// the store already absorbed.
func (s *Store) Persistent() bool { return s.path != "" }

// replayDeltas applies the delta log on top of the loaded checkpoint,
// skipping records from generations the checkpoint already folded in. A
// torn final record is the expected crash artifact: it is dropped and cut
// off the file, because a frame appended behind it would complete the torn
// header's declared length and the next Open would read the pair as one
// frame with a bad CRC.
func (s *Store) replayDeltas() error {
	data, err := os.ReadFile(s.deltaPath())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	intact, err := wal.DecodeFrames(data, func(payload []byte) error {
		var d delta
		if err := json.Unmarshal(payload, &d); err != nil {
			return fmt.Errorf("store: corrupt delta record: %w", err)
		}
		if d.Gen < s.gen {
			// Written before the checkpoint that is already loaded; the
			// crash hit between checkpoint rename and delta reset.
			return nil
		}
		if d.Stats == nil {
			return fmt.Errorf("store: delta for %q has no stats", d.ID)
		}
		if err := d.Stats.Validate(s.m); err != nil {
			return fmt.Errorf("store: delta for %q: %w", d.ID, err)
		}
		switch d.Op {
		case "merge":
			s.mergeLocked(d.ID, d.Stats)
		case "put":
			s.workers[d.ID] = d.Stats.Clone()
		case "profile":
			if d.PID == "" {
				return fmt.Errorf("store: profile delta for %q has no profile ID", d.ID)
			}
			s.mergeLocked(d.ID, d.Stats)
			s.profiles[d.PID] = s.workers[d.ID].Clone()
		default:
			return fmt.Errorf("store: delta op %q", d.Op)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: delta log %s: %w", s.deltaPath(), err)
	}
	if intact < len(data) {
		if err = s.deltaF.Truncate(int64(intact)); err == nil {
			err = s.deltaF.Sync()
		}
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// appendDelta logs one update, fsynced before returning: WAL recovery
// relies on a persistent store's merges being durable (it skips
// re-applying them), so a delta that only reached the page cache would be
// a silent loss under power failure. Deltas are rare — one per worker
// profiling plus one per worker per Results call — so the fsync is off
// every hot path. Callers hold s.mu.
func (s *Store) appendDelta(op, id, pid string, st *truth.Stats) error {
	if s.deltaF == nil {
		return nil
	}
	payload, err := json.Marshal(delta{Gen: s.gen, Op: op, ID: id, PID: pid, Stats: st})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.deltaF.Write(wal.EncodeFrame(nil, payload)); err != nil {
		return fmt.Errorf("store: delta: %w", err)
	}
	if err := s.deltaF.Sync(); err != nil {
		return fmt.Errorf("store: delta: %w", err)
	}
	return nil
}

// Len returns the number of workers with stored statistics.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers)
}

// Worker returns a copy of the stored statistics for the worker, and
// whether any exist.
func (s *Store) Worker(id string) (*truth.Stats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.workers[id]
	if !ok {
		return nil, false
	}
	return st.Clone(), true
}

// Put overwrites the worker's stored statistics (durably, when the store
// is file-backed: the delta is on disk before Put returns).
func (s *Store) Put(id string, st *truth.Stats) error {
	if err := st.Validate(s.m); err != nil {
		return fmt.Errorf("store: worker %q: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workers[id] = st.Clone()
	return s.appendDelta("put", id, "", st)
}

// Merge folds a session's statistics into the stored ones per Theorem 1,
// creating the record if absent (durably, when the store is file-backed).
func (s *Store) Merge(id string, session *truth.Stats) error {
	if err := session.Validate(s.m); err != nil {
		return fmt.Errorf("store: worker %q: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mergeLocked(id, session)
	return s.appendDelta("merge", id, "", session)
}

// MergeProfile applies a golden-profiling merge exactly once per profile
// ID. The first call with a given pid merges the session statistics into
// the worker's stored record (durably, when file-backed: the delta is
// fsynced before returning) and records the post-merge value under pid;
// every later call — a crash-recovery replay of the same gauntlet
// completion, a snapshot pass re-applying it, a double boot —
// finds the pid and returns the recorded value WITHOUT touching the
// worker's record, so replay cannot double-count and a merge whose delta
// died with the process is repaired from the replayed campaign log (the
// pid is then absent, and the merge re-applies identically because the
// worker's stored record is exactly as it was before the lost merge).
//
// The returned anchor is the post-merge statistics as first recorded; all
// replicas of the campaign see identical bits, which is what lets reruns
// initialize worker quality reproducibly across live serving and
// recovery (see core's profiling path).
func (s *Store) MergeProfile(pid, id string, session *truth.Stats) (anchor *truth.Stats, applied bool, err error) {
	if pid == "" {
		return nil, false, fmt.Errorf("store: empty profile ID for worker %q", id)
	}
	if err := session.Validate(s.m); err != nil {
		return nil, false, fmt.Errorf("store: worker %q: %w", id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.profiles[pid]; ok {
		return a.Clone(), false, nil
	}
	s.mergeLocked(id, session)
	anchor = s.workers[id].Clone()
	s.profiles[pid] = anchor.Clone()
	if err := s.appendDelta("profile", id, pid, session); err != nil {
		return nil, false, err
	}
	return anchor, true, nil
}

// SetProfile installs a recorded anchor under a profile ID without merging
// anything — the snapshot-restore path for memory-only stores, whose
// profile ledger (like their worker records) is derived state the snapshot
// must carry. It does not write a delta; persistent stores restore their
// ledger from their own file and must never take this path.
func (s *Store) SetProfile(pid string, anchor *truth.Stats) error {
	if pid == "" {
		return fmt.Errorf("store: empty profile ID")
	}
	if err := anchor.Validate(s.m); err != nil {
		return fmt.Errorf("store: profile %q: %w", pid, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[pid] = anchor.Clone()
	return nil
}

// ProfileIDs returns the recorded profile IDs in sorted order.
func (s *Store) ProfileIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.profiles))
	for pid := range s.profiles {
		ids = append(ids, pid)
	}
	sort.Strings(ids)
	return ids
}

// ProfileAnchor returns a copy of the post-merge statistics recorded under
// the profile ID, and whether the ID is known.
func (s *Store) ProfileAnchor(pid string) (*truth.Stats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.profiles[pid]
	if !ok {
		return nil, false
	}
	return a.Clone(), true
}

func (s *Store) mergeLocked(id string, session *truth.Stats) {
	cur, ok := s.workers[id]
	if !ok {
		cur = &truth.Stats{Q: make([]float64, s.m), U: make([]float64, s.m)}
		for k := range cur.Q {
			cur.Q[k] = truth.DefaultQuality
		}
		s.workers[id] = cur
	}
	cur.Merge(session)
}

// Workers returns the stored worker IDs in sorted order.
func (s *Store) Workers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Save writes a fresh checkpoint atomically (wal.WriteFileAtomic: one file
// fsync, one directory fsync) and resets the delta log. A crash at any
// point leaves a loadable store: before the rename the old checkpoint +
// deltas win, after it the generation guard keeps the stale deltas from
// re-applying. It is a no-op for memory-only stores.
//
// Save deliberately holds the exclusive lock across the file I/O: a Merge
// landing between the marshal and the delta-log reset would append a
// record the new checkpoint does not contain and the reset then destroys.
// The stall is bounded by one small-file write + fsync and Save is only
// called from Results (itself a full batch inference), so correctness wins
// over the brief pause.
func (s *Store) Save() error {
	if s.path == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The generation moves first and stays moved if the write fails: a
	// failure past the rename (the directory fsync) leaves the new
	// checkpoint in place, and deltas still tagged with the old generation
	// would be skipped by the next Open. Bumping early is safe either way —
	// Open applies every delta at or above the checkpoint's generation, and
	// a failed Save leaves the delta log whole.
	s.gen++
	snap := snapshot{M: s.m, Gen: s.gen, Workers: s.workers, Profiles: s.profiles}
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := wal.WriteFileAtomic(s.path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Reset the delta log: its records are folded into the checkpoint now.
	if s.deltaF != nil {
		if err := s.deltaF.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := s.deltaF.Seek(0, 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Close releases the delta log file handle. The store must not be used
// after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deltaF == nil {
		return nil
	}
	err := s.deltaF.Close()
	s.deltaF = nil
	return err
}
