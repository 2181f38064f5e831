// Package snapshot serializes the truth engine's numbers at a WAL
// sequence, so a boot can skip the inference math that produced them.
//
// # What a snapshot is
//
// Everything a campaign serves is either in its write-ahead log (see
// docs/internal/wal) — the publication, golden answers, worker seeds and
// answers — or computed from it: the incremental truth engine's per-task
// M̂ and s and per-worker (q, u). A snapshot holds only the computed part.
// A boot still replays every record from sequence 1 through the ordinary
// serving path; the snapshot lets that replay skip the engine math of the
// answers it covers and install its numbers instead, at the record it
// names (see docs/internal/core's replay). Those numbers must be exactly
// the serial replay's, so the core exports its engine only where nothing
// mutates it — on the campaign's writer, which applies every record in log
// order, after the last record it reserved. This package is just the codec
// and the atomic file protocol.
//
// Left out because derivable: the state of a task nothing has touched since
// it was registered (it is the uniform prior truth.Incremental.AddTask
// computes). Left out because dead weight: the rows of a task's truth
// matrix for the domains its vector gives no weight (a task relates to one
// or two of the 26; every reader skips the rest), and the entries of a
// worker's (q, u) that are still the prior.
//
// # File format
//
//	magic "DOCSSNP5" | one frame: length (u32le) | CRC32-C (u32le) | payload
//
// The payload is binary: an integer is a minimal uvarint, a float64 is its
// 8 raw IEEE-754 bytes little-endian (so "close" can never pass for
// "equal"), a string or slice is a uvarint count followed by its elements.
// Sections come in one fixed order, with no tags and no padding:
//
//	seq | m | baseQ float
//	taskStates   [](id | rows ≥ 1 | cols ≥ 1 | rows×cols floats M̂ | cols floats s)
//	workers      [](id string | q sparse | u sparse)
//	sparse:      count | count × (index < m | float)     (wal.SparseFloats)
//
// A task state's rows are the domains of the task's support (r_k > 0) in
// ascending order; which domains those are is the publication's to say, and
// the boot checks rows against it. A statistics vector is m long and is
// stored as the entries whose bits differ from its default — baseQ, written
// once, for a quality vector and +0 for a weight vector — so any bit pattern
// round-trips.
//
// The encoding is canonical — one State has one byte string, and Decode
// accepts nothing Encode would not produce (overlong varints, a task state
// of no rows, a listed entry equal to its default, an index out of order or
// not below m, and trailing bytes are all corruption) — and every count is
// checked against the bytes that remain before anything is allocated.
//
// The layout's version is the log's: a change to it bumps the segment
// format version (docs/internal/wal), which refuses the older log whole, so
// a snapshot is only ever read beside a log of its own layout. The magic
// only tells a snapshot from another file: one with any other magic is
// rejected as foreign and the boot replays the whole log with its math,
// which reconstructs everything.
//
// The frame is the WAL's frame encoding (wal.EncodeFrame), so torn-write
// discrimination follows the WAL's rule: a frame cut short by EOF is a
// torn write, bytes present-but-wrong are corruption. Either way the
// snapshot is rejected and the boot falls back to a full replay — losing
// time, never state.
//
// The file is replaced through wal.WriteFileAtomic (staged at
// <dir>/snapshot.tmp), so readers see either the old complete snapshot or
// the new complete snapshot, never a mix.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"docs/internal/wal"
)

// FileName is the snapshot's name inside a campaign's WAL directory.
const FileName = "snapshot"

const magic = "DOCSSNP5"

// ErrCorrupt marks a snapshot file that exists but cannot be trusted —
// torn, CRC-mismatched, undecodable, or structurally invalid. Boots treat
// it as "no snapshot" (full replay) but must surface the reason loudly.
var ErrCorrupt = errors.New("snapshot: corrupt")

// State is the truth engine's numbers at a WAL sequence number: installing
// them when a replay reaches Seq, in place of the math the answers up to
// Seq would have run, leaves the engine exactly where a full replay would.
type State struct {
	// Seq is the last WAL sequence number the snapshot covers.
	Seq uint64
	// M is the length of every statistics vector below (the campaign's
	// domain count) and BaseQ the value their quality vectors are held
	// against: a listed entry is one whose bits differ from BaseQ (from +0
	// for a weight vector).
	M     int
	BaseQ float64
	// TaskStates hold the inference state of every non-golden task touched
	// since it was registered (answered, reseeded by a rerun, or restored),
	// sorted by ID. An absent task is at its registration prior.
	TaskStates []TaskState
	// Workers are the truth engine's per-worker statistics, sorted by ID.
	Workers []WorkerStats
}

// TaskState is one task's inference state. The task's accepted answers are
// not stored: they are the per-task subsequence of the answer log, which
// the boot has replayed by the time it installs the state.
type TaskState struct {
	ID int
	// MHat are the raw (rescaled) numerators M̂ the incremental updates
	// multiply into — not the normalized M, which is derived. One row per
	// domain of the task's support, ascending, at least one; column per
	// choice; every row is len(S) long.
	MHat [][]float64
	// S is the probabilistic truth s_i.
	S []float64
}

// WorkerStats is one worker's (q, u) statistics, each vector State.M long
// and held sparsely: Q against State.BaseQ, U against +0.
type WorkerStats struct {
	ID string
	Q  wal.SparseFloats
	U  wal.SparseFloats
}

// Encode renders the state as a complete snapshot file image. Snapshots
// are compared bit-for-bit across boots, so Encode is a docs-lint
// determinism root (the encoding is a pure function of the State: fields
// in the package comment's order, floats as raw bits). It fails only on a
// State the format cannot express: a negative integer, a task state with
// no row, an empty S or an M̂ row that is not len(S) long, a statistics
// vector that is not canonical against (M, BaseQ).
//
//docs:deterministic
func Encode(st *State) ([]byte, error) {
	e := encoder{m: st.M, baseQ: st.BaseQ}
	e.uvarint(st.Seq)
	e.int(st.M)
	e.rawFloats([]float64{st.BaseQ})
	e.count(len(st.TaskStates))
	for _, ts := range st.TaskStates {
		if len(ts.S) == 0 || len(ts.MHat) == 0 {
			return nil, fmt.Errorf("snapshot: encode: task %d has a state of %d rows and %d choices", ts.ID, len(ts.MHat), len(ts.S))
		}
		e.int(ts.ID)
		e.count(len(ts.MHat))
		e.count(len(ts.S))
		for _, row := range ts.MHat {
			if len(row) != len(ts.S) {
				return nil, fmt.Errorf("snapshot: encode: task %d has an M̂ row of %d choices, want %d",
					ts.ID, len(row), len(ts.S))
			}
			e.rawFloats(row)
		}
		e.rawFloats(ts.S)
	}
	e.count(len(st.Workers))
	for _, w := range st.Workers {
		e.str(w.ID)
		e.sparse(w.Q, e.baseQ)
		e.sparse(w.U, 0)
	}
	if e.err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", e.err)
	}
	out := make([]byte, 0, len(magic)+8+len(e.b))
	out = append(out, magic...)
	return wal.EncodeFrame(out, e.b), nil
}

// encoder appends the payload's primitives; the first value the format
// cannot express is kept in err and reported once by Encode. m and baseQ
// are what the statistics vectors are held against.
type encoder struct {
	b     []byte
	err   error
	m     int
	baseQ float64
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) count(n int)      { e.uvarint(uint64(n)) }

func (e *encoder) int(v int) {
	if v < 0 && e.err == nil {
		e.err = fmt.Errorf("negative integer %d", v)
	}
	e.uvarint(uint64(v))
}

func (e *encoder) str(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *encoder) rawFloats(fs []float64) {
	for _, f := range fs {
		e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
	}
}

// sparse appends one statistics vector held against base.
func (e *encoder) sparse(sf wal.SparseFloats, base float64) {
	b, err := wal.AppendSparseFloats(e.b, sf, e.m, base)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.b = b
}

// Decode parses a snapshot file image, distinguishing a torn tail (frame
// cut short by EOF) from present-but-wrong bytes; both reject the snapshot
// with ErrCorrupt, carrying the reason. It never panics on arbitrary input
// and allocates no slice longer than the bytes that remain to fill it
// (FuzzSnapshotDecode holds it to both).
func Decode(data []byte) (*State, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	var st *State
	frames := data[len(magic):]
	intact, err := wal.DecodeFrames(frames, func(payload []byte) error {
		if st != nil {
			return fmt.Errorf("%w: trailing frame after state", ErrCorrupt)
		}
		d := decoder{Cursor: wal.NewCursor(payload)}
		st = d.state()
		if err := d.End(); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if intact < len(frames) {
		return nil, fmt.Errorf("%w: torn frame", ErrCorrupt)
	}
	if st == nil {
		return nil, fmt.Errorf("%w: no state frame", ErrCorrupt)
	}
	return st, nil
}

// decoder pops the payload's sections off the shared cursor, which holds
// the primitive rules (canonical varints, counts checked before anything is
// allocated, one sticky error); what is left here is the layout. m and
// baseQ are the header's, which the statistics vectors are held against.
type decoder struct {
	wal.Cursor
	m     int
	baseQ float64
}

func (d *decoder) str() string { return string(d.Bytes()) }

// rawFloats fills dst from the next 8·len(dst) bytes.
func (d *decoder) rawFloats(dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(d.U64())
	}
}

// taskState pops one task state. M̂ and s share one allocation: the
// (rows+1)×cols floats are contiguous in the payload.
func (d *decoder) taskState() TaskState {
	ts := TaskState{ID: d.Int()}
	rows, cols := d.Count(8), d.Count(8)
	if d.Err() != nil {
		return ts
	}
	if rows == 0 || cols == 0 || rows+1 > d.Len()/8/cols {
		d.Failf("task %d state of %d×%d floats does not fit the %d bytes remaining", ts.ID, rows+1, cols, d.Len())
		return ts
	}
	flat := make([]float64, (rows+1)*cols)
	d.rawFloats(flat)
	ts.MHat = make([][]float64, rows)
	for x := range ts.MHat {
		ts.MHat[x] = flat[x*cols : (x+1)*cols : (x+1)*cols]
	}
	ts.S = flat[rows*cols:]
	return ts
}

func (d *decoder) state() *State {
	st := &State{Seq: d.Uvarint()}
	st.M, st.BaseQ = d.Int(), math.Float64frombits(d.U64())
	d.m, d.baseQ = st.M, st.BaseQ
	if n := d.Count(19); n > 0 {
		st.TaskStates = make([]TaskState, n)
		for i := range st.TaskStates {
			st.TaskStates[i] = d.taskState()
		}
	}
	if n := d.Count(3); n > 0 {
		st.Workers = make([]WorkerStats, n)
		for i := range st.Workers {
			w := &st.Workers[i]
			w.ID = d.str()
			w.Q = d.SparseFloats(wal.SparseFloats{}, d.m, d.baseQ)
			w.U = d.SparseFloats(wal.SparseFloats{}, d.m, 0)
		}
	}
	return st
}

// Write atomically replaces dir's snapshot with the given state
// (wal.WriteFileAtomic: one file fsync, one directory fsync). A crash at
// any point leaves either the previous snapshot or the new one.
func Write(dir string, st *State) error {
	data, err := Encode(st)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dir, FileName), data); err != nil {
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
