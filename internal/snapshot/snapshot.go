// Package snapshot serializes the complete recoverable state of a DOCS
// serving campaign — the state a boot would otherwise reconstruct by
// replaying the whole write-ahead log — so restart cost becomes
// proportional to the un-snapshotted WAL suffix instead of the campaign's
// lifetime answer count.
//
// # What a snapshot is
//
// The serving core's canonical state is *defined* as the serial replay of
// its durable record stream (see docs/internal/wal), so a snapshot is only
// correct if it is bit-for-bit that serial state. The
// core therefore never snapshots its live concurrently-mutated state; it
// maintains a serial shadow replica fed from the durable log and
// serializes that (see docs/internal/core's snapshot worker). This package
// is just the codec and the atomic file protocol.
//
// Every float64 that participates in inference — the truth-matrix
// numerators M̂, the probabilistic truths s, worker quality q and weight u
// — is stored as its raw IEEE-754 bits (uint64), so "close" can never pass
// for "equal" across an encode/decode round trip. Task metadata travels as
// the same JSON encoding the WAL's publish record uses.
//
// # File format
//
//	magic "DOCSSNP2" | one frame: length (u32le) | CRC32-C (u32le) | JSON
//
// The magic doubles as the format version: "DOCSSNP2" added the per-worker
// profile anchors (AnchorQ/AnchorU). A "DOCSSNP1" snapshot is rejected as
// unreadable and the boot falls back to a full log replay, which
// reconstructs the anchors from the WAL — an automatic, lossless
// migration paid once in boot time.
//
// The frame is the WAL's frame encoding (wal.EncodeFrame), so torn-write
// discrimination follows the WAL's rule: a frame cut short by EOF is a
// torn write (an interrupted replace that the atomic rename should have
// prevented, or plain truncation), bytes present-but-wrong are corruption.
// Either way the snapshot is rejected and the boot falls back to a full
// log replay — losing time, never state.
//
// The file is written to a temp name, fsynced, renamed over
// <dir>/snapshot, and the directory fsynced, so readers see either the old
// complete snapshot or the new complete snapshot, never a mix.
package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"docs/internal/wal"
)

// FileName is the snapshot's name inside a campaign's WAL directory.
const FileName = "snapshot"

const magic = "DOCSSNP2"

// ErrCorrupt marks a snapshot file that exists but cannot be trusted —
// torn, CRC-mismatched, undecodable, or structurally invalid. Boots treat
// it as "no snapshot" (full replay) but must surface the reason loudly.
var ErrCorrupt = errors.New("snapshot: corrupt")

// State is the complete recoverable state of one campaign at a WAL
// sequence number. Restoring it and then replaying WAL records with
// Seq > Seq reconstructs exactly the state a full replay would.
type State struct {
	// Seq is the last WAL sequence number the snapshot covers.
	Seq uint64 `json:"seq"`
	// Answers is the accepted non-golden answer count (the counter that
	// drives the periodic-rerun cadence; must equal the log length).
	Answers int64 `json:"answers"`
	// Tasks is the published task set with DVE-computed domain vectors —
	// the same JSON encoding the WAL's publish record carries, so a
	// restored publication matches a replayed one exactly.
	Tasks json.RawMessage `json:"tasks,omitempty"`
	// GoldenIDs are the golden task IDs in publication order.
	GoldenIDs []int `json:"golden_ids,omitempty"`
	// TaskStates hold each non-golden task's inference state, sorted by ID.
	TaskStates []TaskState `json:"task_states,omitempty"`
	// Workers are the truth engine's per-worker statistics, sorted by ID.
	Workers []WorkerStats `json:"workers,omitempty"`
	// Serving is the orchestrator's per-worker serving state (golden
	// answers, profiling flag, answered-task sets), sorted by ID.
	Serving []WorkerServing `json:"serving,omitempty"`
	// Store holds the long-run worker store's contents — present only when
	// the campaign runs over a memory-only store (a persistent store is
	// durable on its own; recovery's only writes to it are idempotent
	// merge-once profile repairs).
	Store []WorkerStats `json:"store,omitempty"`
	// StoreProfiles is the memory-only store's merge-once profile ledger:
	// each recorded profile ID with its post-merge anchor bits (WorkerStats
	// with ID holding the profile ID). Empty for persistent stores, whose
	// ledger lives in their own file.
	StoreProfiles []WorkerStats `json:"store_profiles,omitempty"`
	// Log is the chronological non-golden answer log, column-packed.
	Log Log `json:"log"`
}

// Log is the chronological answer log in columnar form: Workers is a
// dictionary in first-appearance order and W/T/C are parallel arrays of
// (worker index, task ID, choice). Columnar integers decode an order of
// magnitude faster than an array of objects, and the log dominates a
// snapshot's size.
type Log struct {
	Workers []string `json:"workers,omitempty"`
	W       []int    `json:"w,omitempty"`
	T       []int    `json:"t,omitempty"`
	C       []int    `json:"c,omitempty"`
}

// Len returns the number of logged answers.
func (l *Log) Len() int { return len(l.W) }

// TaskState is one task's recoverable inference state. The task's accepted
// answers are not stored: they are exactly the per-task subsequence of the
// chronological log, from which the restore rebuilds them.
type TaskState struct {
	ID int `json:"id"`
	// MHat are the raw (rescaled) numerators M̂ the incremental updates
	// multiply into — not the normalized M, which is derived. Row per
	// domain, column per choice, as float64 bits.
	MHat [][]uint64 `json:"mhat"`
	// S is the probabilistic truth s_i, as float64 bits.
	S []uint64 `json:"s"`
}

// WorkerStats is one worker's (q, u) statistics as float64 bits.
type WorkerStats struct {
	ID string   `json:"id"`
	Q  []uint64 `json:"q"`
	U  []uint64 `json:"u"`
}

// WorkerServing is one worker's orchestrator-side serving state.
type WorkerServing struct {
	ID       string `json:"id"`
	Profiled bool   `json:"profiled,omitempty"`
	// GoldenTasks/GoldenChoices are the worker's golden answers in the
	// order profiling consumed them.
	GoldenTasks   []int `json:"golden_tasks,omitempty"`
	GoldenChoices []int `json:"golden_choices,omitempty"`
	// Answered are the regular tasks the worker answered (T(w)), sorted.
	Answered []int `json:"answered,omitempty"`
	// AnchorQ/AnchorU are the worker's pinned profile anchor — the
	// long-run store statistics adopted when she was profiled or first
	// seeded — as float64 bits. Both empty when no anchor is pinned.
	AnchorQ []uint64 `json:"anchor_q,omitempty"`
	AnchorU []uint64 `json:"anchor_u,omitempty"`
}

// Bits converts floats to their raw IEEE-754 bits.
func Bits(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// Floats converts raw bits back to floats.
func Floats(bs []uint64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = math.Float64frombits(b)
	}
	return out
}

// BitsMatrix converts a float matrix to raw bits row by row.
func BitsMatrix(m [][]float64) [][]uint64 {
	out := make([][]uint64, len(m))
	for i, row := range m {
		out[i] = Bits(row)
	}
	return out
}

// FloatsMatrix converts a bit matrix back to floats row by row.
func FloatsMatrix(m [][]uint64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = Floats(row)
	}
	return out
}

// Encode renders the state as a complete snapshot file image. Snapshots
// are compared bit-for-bit across boots, so Encode is a docs-lint
// determinism root (json.Marshal of the State struct is deterministic:
// fields in declaration order, floats already converted to raw bits).
//
//docs:deterministic
func Encode(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	out := make([]byte, 0, len(magic)+8+len(payload))
	out = append(out, magic...)
	return wal.EncodeFrame(out, payload), nil
}

// Decode parses a snapshot file image, distinguishing a torn tail (frame
// cut short by EOF) from present-but-wrong bytes; both reject the snapshot
// with ErrCorrupt, carrying the reason.
func Decode(data []byte) (*State, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	var st *State
	frames := 0
	torn, err := wal.DecodeFrames(data[len(magic):], func(payload []byte) error {
		frames++
		if frames > 1 {
			return fmt.Errorf("%w: trailing frame after state", ErrCorrupt)
		}
		st = new(State)
		if jerr := json.Unmarshal(payload, st); jerr != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, jerr)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if torn {
		return nil, fmt.Errorf("%w: torn frame", ErrCorrupt)
	}
	if st == nil {
		return nil, fmt.Errorf("%w: no state frame", ErrCorrupt)
	}
	return st, nil
}

// Write atomically replaces dir's snapshot with the given state: temp
// file, fsync, rename, directory fsync. A crash at any point leaves either
// the previous snapshot or the new one.
func Write(dir string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, FileName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: %w", err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Read loads dir's snapshot, or (nil, nil) when none exists. Any other
// failure — unreadable file, torn tail, corruption — is an error wrapping
// ErrCorrupt where applicable; callers fall back to full replay and
// surface the reason.
func Read(dir string) (*State, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return Decode(data)
}
