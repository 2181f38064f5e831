// Package store persists DOCS's long-run parameters: each worker's quality
// vector q^w and weight vector u^w (Section 4.2, Theorem 1), which the paper
// keeps in the system's database so workers returning for a later
// requester's tasks start from their history. Here that database is the
// write-ahead log (package docs/internal/wal): a persistent store is a log
// directory of KindStore records, one per Put, MergeProfile and changed
// Session (layout in record.go), each carrying the update's input. Open
// replays them through the step the live calls run, so a reopened store
// holds the live store's float bits. There is no checkpoint: the log is the
// store. A worker's value is her base (the log-order fold of puts and
// merges) or the prior, with her latest session of each scope merged in.
//
// A writer logs and applies its update under s.mu, so log order is apply
// order, and waits for the record only after releasing the lock: concurrent
// merges from every campaign share the log's group commits, and no fsync
// runs under s.mu. No caller ever observes a value whose record is not yet
// durable: a read captures the newest reservation together with the value
// and waits for it (with nothing in flight, one comparison), so a campaign
// never seeds or anchors a worker on a merge a crash could take back. A
// read the log can no longer vouch for — its write failed — reports the
// worker or profile unknown.
package store

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"docs/internal/truth"
	"docs/internal/wal"
)

// Store holds per-worker statistics, keyed by platform worker ID.
type Store struct {
	mu      sync.RWMutex
	m       int
	held    map[string]map[string]*truth.Stats // worker → "" (her base) or scope → stats
	workers map[string]*truth.Stats            // what Worker returns: held, folded
	// profiles maps each profile ID ever merged to the worker's value right
	// after the merge: the merge-once ledger MergeProfile consults.
	profiles map[string]*truth.Stats
	log      *wal.Log    // nil for memory-only stores
	last     wal.Pending // newest reservation, zero before the first
}

// Open creates a store over m domains. A non-empty path names its log
// directory: the records there are replayed and every later update is
// appended. An empty path keeps the store memory-only.
func Open(path string, m int) (*Store, error) {
	if m <= 0 {
		return nil, fmt.Errorf("store: m = %d, want > 0", m)
	}
	s := &Store{m: m, held: make(map[string]map[string]*truth.Stats),
		workers: make(map[string]*truth.Stats), profiles: make(map[string]*truth.Stats)}
	if path == "" {
		return s, nil
	}
	_, err := wal.Replay(path, func(rec wal.Record) error {
		u, err := decodeUpdate(rec, s.m)
		if err == nil && u.op == opProfile && s.profiles[u.key] != nil {
			err = fmt.Errorf("profile %q logged twice", u.key) // MergeProfile logs an ID once
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		s.apply(u)
		return nil
	})
	if err == nil {
		s.log, err = wal.Open(path, wal.Options{Sync: wal.SyncEveryBatch})
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return s, nil
}

// Persistent reports whether the store is file-backed: its contents
// survive the process, so replay-style recovery must not re-apply merges
// the store already absorbed.
func (s *Store) Persistent() bool { return s.log != nil }

// write validates an update, logs and applies it under s.mu and waits for
// its record after releasing the lock; a record the log refuses changes
// nothing. A profile ID in the ledger, or a session its scope already holds,
// writes nothing. For a profile update it returns the recorded anchor.
func (s *Store) write(u update) (anchor *truth.Stats, applied bool, err error) {
	if err := u.st.Validate(s.m); err != nil {
		return nil, false, fmt.Errorf("store: worker %q: %w", u.id, err)
	}
	if u.key == "" && (u.op == opProfile || u.op == opSession) {
		return nil, false, fmt.Errorf("store: empty profile ID or scope for worker %q", u.id)
	}
	s.mu.Lock()
	found := u.op == opProfile && s.profiles[u.key] != nil ||
		u.op == opSession && sameBits(s.held[u.id][u.key], u.st)
	if !found && s.log != nil {
		var p wal.Pending
		blob, err := encodeUpdate(u, s.m)
		if err == nil {
			p, err = s.log.Reserve(wal.Record{Kind: wal.KindStore, Worker: u.id, Blob: blob})
		}
		if err != nil {
			s.mu.Unlock()
			return nil, false, fmt.Errorf("store: %w", err)
		}
		s.last = p
	}
	if !found {
		s.apply(u)
	}
	if u.op == opProfile {
		anchor = s.profiles[u.key].Clone()
	}
	p := s.last
	s.mu.Unlock()
	if err := p.Wait(); err != nil {
		return nil, false, err
	}
	return anchor, !found, nil
}

// apply folds one update into the maps, live or replayed, and refolds the
// worker's value, merging her sessions in sorted scope order.
func (s *Store) apply(u update) {
	held := s.held[u.id]
	if held == nil {
		held = map[string]*truth.Stats{"": truth.NewStats(s.m)} // her base starts at the prior
		s.held[u.id] = held
	}
	switch u.op {
	case opPut, opSession: // a put's key is "", the base's
		held[u.key] = u.st.Clone()
	case opProfile:
		held[""].Merge(u.st)
	}
	v := held[""].Clone()
	for _, scope := range sortedKeys(held)[1:] { // the base's "" sorts first
		v.Merge(held[scope])
	}
	s.workers[u.id] = v
	if u.op == opProfile {
		s.profiles[u.key] = v.Clone()
	}
}

// sameBits reports whether a is non-nil and holds b's float bits.
func sameBits(a, b *truth.Stats) bool {
	eq := a != nil
	for k := 0; eq && k < len(a.Q); k++ {
		eq = math.Float64bits(a.Q[k]) == math.Float64bits(b.Q[k]) && math.Float64bits(a.U[k]) == math.Float64bits(b.U[k])
	}
	return eq
}

// Len returns the number of workers with stored statistics.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.workers)
}

// Worker returns a copy of the stored statistics for the worker, and
// whether any exist.
func (s *Store) Worker(id string) (*truth.Stats, bool) { return s.read(s.workers, id) }

// read looks key up and waits for the newest reservation the lookup could
// have observed.
func (s *Store) read(from map[string]*truth.Stats, key string) (*truth.Stats, bool) {
	s.mu.RLock()
	st, ok := from[key]
	if ok {
		st = st.Clone()
	}
	p := s.last
	s.mu.RUnlock()
	if !ok || p.Wait() != nil {
		return nil, false
	}
	return st, true
}

// Put overwrites the worker's stored statistics (durably, when the store
// is file-backed: the record is on disk before Put returns).
func (s *Store) Put(id string, st *truth.Stats) error {
	_, _, err := s.write(update{op: opPut, id: id, st: st})
	return err
}

// Session replaces the worker's session under scope (durably, when the
// store is file-backed); one bit-equal to the one held writes nothing.
func (s *Store) Session(scope, id string, session *truth.Stats) error {
	_, _, err := s.write(update{op: opSession, id: id, key: scope, st: session})
	return err
}

// MergeProfile applies a golden-profiling merge exactly once per profile
// ID. The first call with a given pid merges the session statistics into
// the worker's base (durably, when file-backed) and records her value right
// after it under pid; every later call — a crash-recovery replay of
// the same gauntlet completion, a snapshot pass, a double boot — returns
// the recorded value WITHOUT touching the worker's record. A merge whose
// record died with the process is repaired by the replayed campaign log:
// the pid is absent, and the merge re-applies onto the identical prior
// record. All replicas of a campaign therefore anchor on identical bits.
func (s *Store) MergeProfile(pid, id string, session *truth.Stats) (anchor *truth.Stats, applied bool, err error) {
	return s.write(update{op: opProfile, id: id, key: pid, st: session})
}

// ProfileIDs returns the recorded profile IDs in sorted order.
func (s *Store) ProfileIDs() []string { return s.keys(s.profiles) }

// ProfileAnchor returns a copy of the post-merge statistics recorded under
// the profile ID, and whether the ID is known.
func (s *Store) ProfileAnchor(pid string) (*truth.Stats, bool) { return s.read(s.profiles, pid) }

// Workers returns the stored worker IDs in sorted order.
func (s *Store) Workers() []string { return s.keys(s.workers) }

func (s *Store) keys(m map[string]*truth.Stats) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(m)
}

func sortedKeys(m map[string]*truth.Stats) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Close flushes, fsyncs and closes the log. The store must not be used
// after Close.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
