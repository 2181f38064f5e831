// Worker-profile seeds: the durable record of store state the campaign
// adopted, so recovery restores it instead of re-deriving it.
//
// A campaign reads the long-run worker store in two places: when a
// store-known worker first becomes visible (workerReady / ensureWorker) and
// when golden profiling completes (store.MergeProfile). Other campaigns keep
// merging into the store, so a replay that re-read it would see other bits
// than the live system did. So a seed is logged as a KindSeed record of the
// exact bits adopted, under logMu in the critical section that installs it,
// which orders it before every answer that could observe it; replay applies
// the logged bits and never reads the store. The profiling merge is
// idempotent by ID instead, and the anchor it returns is pinned in the
// worker's serving state, where initQuality reads it.
package core

import (
	"encoding/binary"

	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// encodeSeed renders seeded worker statistics as a KindSeed blob in the
// store update's layout, the profiled flag in the op byte's place:
//
//	m uvarint | profiled byte (0 or 1) | q sparse | u sparse
//
// with q and u as store.AppendStats writes them, so the replayed seed is
// the live seed down to the last ulp and a worker's untouched domains cost
// nothing.
func encodeSeed(st *truth.Stats, profiled bool) ([]byte, error) {
	flag := byte(0)
	if profiled {
		flag = 1
	}
	return store.AppendStats(append(binary.AppendUvarint(nil, uint64(len(st.Q))), flag), st, len(st.Q))
}

// decodeSeed parses a KindSeed blob, validating the statistics against the
// system's domain count. It never panics on arbitrary input, and what it
// accepts is exactly what encodeSeed writes: one blob per seed.
func decodeSeed(blob []byte, m int) (*truth.Stats, bool, error) {
	c := wal.NewCursor(blob)
	if n := c.Uvarint(); c.Err() == nil && n != uint64(m) {
		c.Failf("seed has %d domains, want %d", n, m)
	}
	flag := c.Byte()
	if c.Err() == nil && flag > 1 {
		c.Failf("bad profiled flag %d", flag)
	}
	st, err := store.PopStats(&c, m)
	if err != nil {
		return nil, false, err
	}
	return st, flag == 1, nil
}

// profileID is the durable identity of this campaign's profiling merge for
// a worker: one merge per (campaign, worker), applied exactly once no
// matter how often the campaign log replays. The scope charset (campaign
// names: [A-Za-z0-9_-]) cannot contain "/", so the join is unambiguous.
func (s *System) profileID(workerID string) string {
	return s.cfg.ProfileScope + "/" + workerID
}

// logSeed installs store statistics as the worker's incremental seed and
// logs them as a KindSeed record. Callers hold logMu, so the record precedes
// every answer that could observe the seed, in the log as in memory. With
// force the record is logged even when the set-if-absent install lost:
// workerReady makes its profiled-flag flip durable that way.
func (s *System) logSeed(workerID string, st *truth.Stats, profiled, force bool) (installed bool, p wal.Pending, err error) {
	blob, err := encodeSeed(st, profiled)
	if err != nil {
		return false, p, err
	}
	installed, _ = s.inc.SeedWorker(workerID, st)
	if installed || force {
		p, err = s.walReserve(wal.Record{Kind: wal.KindSeed, Worker: workerID, Blob: blob})
	}
	return installed, p, err
}

// applySeed applies one seed, live or replayed from its KindSeed record: the
// bits installed set-if-absent, the profiled flag when the seed carried it,
// and the anchor if none is pinned yet (the first seed wins).
func (s *System) applySeed(workerID string, st *truth.Stats, profiled bool) {
	_, _ = s.inc.SeedWorker(workerID, st)
	ws := s.stateFor(workerID)
	ws.mu.Lock()
	if profiled {
		ws.profiled = true
	}
	if ws.anchor == nil {
		ws.anchor = st.Clone()
	}
	ws.mu.Unlock()
}
