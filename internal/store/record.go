package store

import (
	"encoding/binary"
	"errors"
	"fmt"

	"docs/internal/truth"
	"docs/internal/wal"
)

// The update ops a record can carry.
const (
	opPut     byte = 1 // overwrite the worker's base
	opMerge   byte = 2 // fold a session into the base (Theorem 1); older logs only
	opProfile byte = 3 // opMerge, and record the folded result under a profile ID
	opSession byte = 4 // hold a scope's latest session, replacing its previous one
)

// update is one Put, Session or MergeProfile (or a replayed merge): what a
// KindStore record holds.
type update struct {
	op      byte
	id, key string // worker; profile ID (opProfile) or scope (opSession)
	st      *truth.Stats
}

// encodeUpdate renders the record's blob (the worker is the record's
// Worker field):
//
//	m uvarint | op byte | key (uvarint length | bytes; opProfile and opSession only) | q sparse | u sparse
//
// with the statistics as AppendStats writes them.
func encodeUpdate(u update, m int) ([]byte, error) {
	b := append(binary.AppendUvarint(nil, uint64(m)), u.op)
	if u.op == opProfile || u.op == opSession {
		b = append(binary.AppendUvarint(b, uint64(len(u.key))), u.key...)
	}
	return AppendStats(b, u.st, m)
}

// AppendStats appends statistics over m domains as the pair a store update
// and a KindSeed blob end with: q as a wal.SparseFloats against
// truth.DefaultQuality, then u against +0 — raw bits, defaults cost nothing.
func AppendStats(b []byte, st *truth.Stats, m int) ([]byte, error) {
	b, err := wal.AppendSparseFloats(b, wal.SparseOf(wal.SparseFloats{}, st.Q, truth.DefaultQuality), m, truth.DefaultQuality)
	if err != nil {
		return nil, err
	}
	return wal.AppendSparseFloats(b, wal.SparseOf(wal.SparseFloats{}, st.U, 0), m, 0)
}

// PopStats pops what AppendStats appends and ends the cursor, refusing
// statistics Validate refuses and whatever the cursor refuses.
func PopStats(c *wal.Cursor, m int) (*truth.Stats, error) {
	q := c.SparseFloats(wal.SparseFloats{}, m, truth.DefaultQuality)
	u := c.SparseFloats(wal.SparseFloats{}, m, 0)
	if err := c.End(); err != nil {
		return nil, err
	}
	st := truth.NewStats(m)
	if err := errors.Join(q.Scatter(st.Q), u.Scatter(st.U), st.Validate(m)); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeUpdate parses a store-log record over m domains. It never panics,
// and what it accepts is exactly what encodeUpdate writes: another record
// kind or domain count, an unknown op, an empty profile ID or scope, a
// listed default entry, an index out of order or not below m, statistics
// Validate refuses or a trailing byte is an error.
func decodeUpdate(rec wal.Record, m int) (update, error) {
	if rec.Kind != wal.KindStore {
		return update{}, fmt.Errorf("a kind %d record is not a worker-store update", rec.Kind)
	}
	c := wal.NewCursor(rec.Blob)
	if n := c.Uvarint(); c.Err() == nil && n != uint64(m) {
		c.Failf("update has %d domains, want %d", n, m)
	}
	u := update{op: c.Byte(), id: rec.Worker}
	switch u.op {
	case opPut, opMerge:
	case opProfile, opSession:
		if u.key = string(c.Bytes()); u.key == "" {
			c.Failf("op %d update has an empty key", u.op)
		}
	default:
		c.Failf("unknown update op %d", u.op)
	}
	var err error
	if u.st, err = PopStats(&c, m); err != nil {
		return update{}, err
	}
	return u, nil
}
