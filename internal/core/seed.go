// Worker-profile seeds: the durable record of store state the campaign
// adopted, so recovery restores it instead of re-deriving it.
//
// A campaign reads the long-run worker store in exactly two places: when a
// store-known worker first becomes visible (workerReady / ensureWorker
// seed the incremental engine from her stored statistics) and when golden
// profiling completes (the Theorem-1 merge, via store.MergeProfile). Both
// reads are time-of-event reads of a store that keeps evolving — other
// campaigns merge into it concurrently — so a replay that re-read the
// store at boot time would observe different bits than the live system
// did, and recovered worker quality (and with it every downstream /result
// confidence) would drift in the last ulps. That drift was ROADMAP item 5:
// ~1e-7 divergence between live and recovered /result confidences after
// kill -9.
//
// The fix is to make both reads durable events. A seed is logged as a
// KindSeed WAL record whose blob carries the exact float64 bits adopted,
// emitted under logMu in the same critical section that installs the seed,
// so the record's sequence orders it before any answer that could have
// observed the seeded statistics. Replay applies the logged bits and never
// touches the store. The profiling merge is made idempotent-by-ID instead
// (store.MergeProfile), and the post-merge anchor it returns is pinned in
// the worker's serving state, where rerun initialization reads it — see
// initQuality.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"docs/internal/model"
	"docs/internal/truth"
	"docs/internal/wal"
)

// encodeSeed renders seeded worker statistics as a KindSeed blob:
//
//	m (uvarint) | m×8 bytes Q bits (u64le) | m×8 bytes U bits (u64le) | profiled (1 byte)
//
// The floats travel as raw IEEE-754 bits so the replayed seed is the live
// seed down to the last ulp.
func encodeSeed(st *truth.Stats, profiled bool) []byte {
	m := len(st.Q)
	out := binary.AppendUvarint(nil, uint64(m))
	for _, q := range st.Q {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(q))
	}
	for _, u := range st.U {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(u))
	}
	if profiled {
		return append(out, 1)
	}
	return append(out, 0)
}

// decodeSeed parses a KindSeed blob, validating the statistics against the
// system's domain count. It never panics on arbitrary input, and what it
// accepts is exactly what encodeSeed writes: one blob per seed.
func decodeSeed(blob []byte, m int) (*truth.Stats, bool, error) {
	c := wal.NewCursor(blob)
	n := c.Uvarint()
	if err := c.Err(); err != nil {
		return nil, false, fmt.Errorf("domain count: %w", err)
	}
	if n != uint64(m) {
		return nil, false, fmt.Errorf("seed has %d domains, want %d", n, m)
	}
	// The exact length makes every pop below succeed and leaves no byte over.
	if c.Len() != 16*m+1 {
		return nil, false, fmt.Errorf("seed payload is %d bytes, want %d", c.Len(), 16*m+1)
	}
	st := &truth.Stats{Q: make(model.QualityVector, m), U: make([]float64, m)}
	for k := range st.Q {
		st.Q[k] = math.Float64frombits(c.U64())
	}
	for k := range st.U {
		st.U[k] = math.Float64frombits(c.U64())
	}
	flag := c.Byte()
	if flag > 1 {
		return nil, false, fmt.Errorf("bad profiled flag %d", flag)
	}
	if err := st.Validate(m); err != nil {
		return nil, false, err
	}
	return st, flag == 1, nil
}

// profileID is the durable identity of this campaign's profiling merge for
// a worker: one merge per (campaign, worker), applied exactly once no
// matter how often the campaign log replays. The scope charset (campaign
// names: [A-Za-z0-9_-]) cannot contain "/", so the join is unambiguous;
// an unscoped single-campaign system uses the bare "/worker" namespace.
func (s *System) profileID(workerID string) string {
	return s.cfg.ProfileScope + "/" + workerID
}

// logSeed installs store statistics as the worker's incremental seed and
// logs the installed bits as a KindSeed record, atomically with respect to
// the answer log: callers hold logMu, so the record's sequence precedes
// every answer that could observe the seeded statistics, and replay —
// which applies records in sequence order — reconstructs the exact live
// interleaving. The record is emitted even when the install lost the
// set-if-absent race (installed = false) IF force is set: workerReady uses
// that to make its profiled-flag flip durable for workers the incremental
// engine already knew.
func (s *System) logSeed(workerID string, st *truth.Stats, profiled, force bool) (installed bool, p wal.Pending, err error) {
	installed, _ = s.inc.SeedWorker(workerID, st)
	if installed || force {
		p, err = s.walReserve(wal.Record{Kind: wal.KindSeed, Worker: workerID, Blob: encodeSeed(st, profiled)})
	}
	return installed, p, err
}

// applySeed replays one KindSeed record: the logged bits are installed
// set-if-absent (mirroring the live SeedWorker call — if the worker
// already existed, the live install also lost) and the serving-state
// effects are applied: the profiled flag when the seed carried it, and the
// worker's anchor if none is pinned yet (first seed wins, exactly as the
// live set-if-nil does).
func (s *System) applySeed(workerID string, st *truth.Stats, profiled bool) {
	_, _ = s.inc.SeedWorker(workerID, st)
	sh := s.shard(workerID)
	sh.mu.Lock()
	ws := sh.state(workerID)
	if profiled {
		ws.profiled = true
	}
	if ws.anchor == nil {
		ws.anchor = st.Clone()
	}
	sh.mu.Unlock()
}

// anchorStats returns a private copy of the worker's pinned anchor — the
// post-merge (or seeded) long-run statistics adopted when she was profiled
// or first seen — or nil when none is pinned.
func (s *System) anchorStats(workerID string) *truth.Stats {
	sh := s.shard(workerID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ws, ok := sh.workers[workerID]
	if !ok || ws.anchor == nil {
		return nil
	}
	return ws.anchor.Clone()
}
