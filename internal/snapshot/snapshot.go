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
// core therefore never snapshots its live concurrently-mutated state; each
// snapshot pass boots a scratch serial replica from the durable log and
// serializes that (see docs/internal/core's snapshot worker). This package
// is just the codec and the atomic file protocol.
//
// A snapshot holds only what the log and the publication do not already
// determine. Three things are derivable and therefore absent: the
// publication itself (PublishSeq names the WAL record that carries it — the
// log is gapless from sequence 1 and segments are never deleted), the
// inference state of a task nothing has touched since it was registered
// (it is the uniform prior truth.Incremental.AddTask computes), and each
// worker's answered-task set (the per-worker projection of Log).
//
// # File format
//
//	magic "DOCSSNP3" | one frame: length (u32le) | CRC32-C (u32le) | payload
//
// The payload is binary: an integer is a minimal uvarint, a float64 is its
// 8 raw IEEE-754 bytes little-endian (so "close" can never pass for
// "equal"), a string or slice is a uvarint count followed by its elements.
// Sections come in one fixed order, with no tags and no padding:
//
//	seq | publishSeq | answers
//	goldenIDs    []int
//	taskStates   [](id | rows | cols ≥ 1 | rows×cols floats M̂ | cols floats s)
//	workers      []stats            stats = id string | q []float | u []float
//	serving      [](id string | profiled 0/1 | goldenTasks []int |
//	                goldenChoices []int | anchorQ []float | anchorU []float)
//	store        []stats
//	storeProfiles []stats
//	log          workers []string | w []int | t []int | c []int
//
// The encoding is canonical — one State has one byte string, and Decode
// accepts nothing Encode would not produce (overlong varints, a profiled
// byte above 1 and trailing bytes are all corruption) — and every count is
// checked against the bytes that remain before anything is allocated.
//
// The magic doubles as the format version. A snapshot with any other
// magic ("DOCSSNP2" was the JSON encoding) is rejected as unreadable and
// the boot falls back to a full log replay, which reconstructs everything
// from the WAL — an automatic, lossless migration paid once per campaign
// in boot time; the next snapshot pass writes the current format.
//
// The frame is the WAL's frame encoding (wal.EncodeFrame), so torn-write
// discrimination follows the WAL's rule: a frame cut short by EOF is a
// torn write (an interrupted replace that the atomic rename should have
// prevented, or plain truncation), bytes present-but-wrong are corruption.
// Either way the snapshot is rejected and the boot falls back to a full
// log replay — losing time, never state.
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

const magic = "DOCSSNP3"

// ErrCorrupt marks a snapshot file that exists but cannot be trusted —
// torn, CRC-mismatched, undecodable, or structurally invalid. Boots treat
// it as "no snapshot" (full replay) but must surface the reason loudly.
var ErrCorrupt = errors.New("snapshot: corrupt")

// State is the complete recoverable state of one campaign at a WAL
// sequence number, given the campaign's log: restoring it and then
// replaying WAL records with Seq > Seq reconstructs exactly the state a
// full replay would.
type State struct {
	// Seq is the last WAL sequence number the snapshot covers.
	Seq uint64
	// PublishSeq is the sequence number of the WAL record that carries the
	// publication (the task set with its DVE-computed domain vectors); 0 for
	// an unpublished campaign. The restore reads the tasks from that record,
	// so a restored publication is the replayed one by construction.
	PublishSeq uint64
	// Answers is the accepted non-golden answer count (the counter that
	// drives the periodic-rerun cadence; must equal the log length).
	Answers int64
	// GoldenIDs are the golden task IDs in publication order.
	GoldenIDs []int
	// TaskStates hold the inference state of every non-golden task touched
	// since it was registered (answered, reseeded by a rerun, or restored),
	// sorted by ID. An absent task is at its registration prior.
	TaskStates []TaskState
	// Workers are the truth engine's per-worker statistics, sorted by ID.
	Workers []WorkerStats
	// Serving is the orchestrator's per-worker serving state (golden
	// answers, profiling flag, profile anchor), sorted by ID.
	Serving []WorkerServing
	// Store holds the long-run worker store's contents — present only when
	// the campaign runs over a memory-only store (a persistent store is
	// durable on its own; recovery's only writes to it are idempotent
	// merge-once profile repairs).
	Store []WorkerStats
	// StoreProfiles is the memory-only store's merge-once profile ledger:
	// each recorded profile ID with its post-merge anchor (WorkerStats with
	// ID holding the profile ID). Empty for persistent stores, whose ledger
	// lives in their own file.
	StoreProfiles []WorkerStats
	// Log is the chronological non-golden answer log, column-packed.
	Log Log
}

// Log is the chronological answer log in columnar form: Workers is a
// dictionary in first-appearance order and W/T/C are parallel arrays of
// (worker index, task ID, choice). The layout — and the code that appends
// and pops it — is the one a KindBatch record's blob uses.
type Log = wal.Columns

// TaskState is one task's recoverable inference state. The task's accepted
// answers are not stored: they are exactly the per-task subsequence of the
// chronological log, from which the restore rebuilds them.
type TaskState struct {
	ID int
	// MHat are the raw (rescaled) numerators M̂ the incremental updates
	// multiply into — not the normalized M, which is derived. Row per
	// domain, column per choice; every row is len(S) long.
	MHat [][]float64
	// S is the probabilistic truth s_i.
	S []float64
}

// WorkerStats is one worker's (q, u) statistics.
type WorkerStats struct {
	ID string
	Q  []float64
	U  []float64
}

// WorkerServing is one worker's orchestrator-side serving state. The
// regular tasks she answered are not stored: they are her entries in Log.
type WorkerServing struct {
	ID       string
	Profiled bool
	// GoldenTasks/GoldenChoices are the worker's golden answers in the
	// order profiling consumed them.
	GoldenTasks   []int
	GoldenChoices []int
	// AnchorQ/AnchorU are the worker's pinned profile anchor — the
	// long-run store statistics adopted when she was profiled or first
	// seeded. Both empty when no anchor is pinned.
	AnchorQ []float64
	AnchorU []float64
}

// Encode renders the state as a complete snapshot file image. Snapshots
// are compared bit-for-bit across boots, so Encode is a docs-lint
// determinism root (the encoding is a pure function of the State: fields
// in the package comment's order, floats as raw bits). It fails only on a
// State the format cannot express: a negative integer, or a task state
// whose S is empty or whose M̂ rows are not len(S) long.
//
//docs:deterministic
func Encode(st *State) ([]byte, error) {
	if st.Answers < 0 {
		return nil, fmt.Errorf("snapshot: encode: negative answer count %d", st.Answers)
	}
	var e encoder
	e.uvarint(st.Seq)
	e.uvarint(st.PublishSeq)
	e.uvarint(uint64(st.Answers))
	e.ints(st.GoldenIDs)
	e.count(len(st.TaskStates))
	for _, ts := range st.TaskStates {
		if len(ts.S) == 0 {
			return nil, fmt.Errorf("snapshot: encode: task %d has no choices", ts.ID)
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
	e.stats(st.Workers)
	e.count(len(st.Serving))
	for _, ws := range st.Serving {
		e.str(ws.ID)
		profiled := byte(0)
		if ws.Profiled {
			profiled = 1
		}
		e.b = append(e.b, profiled)
		e.ints(ws.GoldenTasks)
		e.ints(ws.GoldenChoices)
		e.floats(ws.AnchorQ)
		e.floats(ws.AnchorU)
	}
	e.stats(st.Store)
	e.stats(st.StoreProfiles)
	payload, err := wal.AppendColumns(e.b, &st.Log)
	if e.err != nil {
		err = e.err // the first inexpressible value is the one reported
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	out := make([]byte, 0, len(magic)+8+len(payload))
	out = append(out, magic...)
	return wal.EncodeFrame(out, payload), nil
}

// encoder appends the payload's primitives; the first value the format
// cannot express is kept in err and reported once by Encode.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) count(n int)      { e.uvarint(uint64(n)) }

func (e *encoder) int(v int) {
	if v < 0 && e.err == nil {
		e.err = fmt.Errorf("negative integer %d", v)
	}
	e.uvarint(uint64(v))
}

func (e *encoder) ints(vs []int) {
	e.count(len(vs))
	for _, v := range vs {
		e.int(v)
	}
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

func (e *encoder) floats(fs []float64) {
	e.count(len(fs))
	e.rawFloats(fs)
}

func (e *encoder) stats(ws []WorkerStats) {
	e.count(len(ws))
	for _, w := range ws {
		e.str(w.ID)
		e.floats(w.Q)
		e.floats(w.U)
	}
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
		d := decoder{wal.NewCursor(payload)}
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
// allocated, one sticky error); what is left here is the layout.
type decoder struct{ wal.Cursor }

func (d *decoder) str() string { return string(d.Bytes()) }

// rawFloats fills dst from the next 8·len(dst) bytes.
func (d *decoder) rawFloats(dst []float64) {
	for i := range dst {
		dst[i] = math.Float64frombits(d.U64())
	}
}

func (d *decoder) floats() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	d.rawFloats(out)
	return out
}

func (d *decoder) stats() []WorkerStats {
	n := d.Count(3)
	if n == 0 {
		return nil
	}
	out := make([]WorkerStats, n)
	for i := range out {
		out[i] = WorkerStats{ID: d.str(), Q: d.floats(), U: d.floats()}
	}
	return out
}

// taskState pops one task state. M̂ and s share one allocation: the
// (rows+1)×cols floats are contiguous in the payload.
func (d *decoder) taskState() TaskState {
	ts := TaskState{ID: d.Int()}
	rows, cols := d.Count(1), d.Count(8)
	if d.Err() != nil {
		return ts
	}
	if cols == 0 || rows+1 > d.Len()/8/cols {
		d.Failf("task %d state of %d×%d floats does not fit the %d bytes remaining", ts.ID, rows+1, cols, d.Len())
		return ts
	}
	flat := make([]float64, (rows+1)*cols)
	d.rawFloats(flat)
	if rows > 0 {
		ts.MHat = make([][]float64, rows)
		for k := range ts.MHat {
			ts.MHat[k] = flat[k*cols : (k+1)*cols : (k+1)*cols]
		}
	}
	ts.S = flat[rows*cols:]
	return ts
}

func (d *decoder) state() *State {
	st := &State{Seq: d.Uvarint(), PublishSeq: d.Uvarint()}
	answers := d.Uvarint()
	if answers > math.MaxInt64 {
		d.Failf("answer count %d out of range", answers)
	}
	st.Answers = int64(answers)
	st.GoldenIDs = d.Ints()
	if n := d.Count(11); n > 0 {
		st.TaskStates = make([]TaskState, n)
		for i := range st.TaskStates {
			st.TaskStates[i] = d.taskState()
		}
	}
	st.Workers = d.stats()
	if n := d.Count(6); n > 0 {
		st.Serving = make([]WorkerServing, n)
		for i := range st.Serving {
			ws := &st.Serving[i]
			ws.ID = d.str()
			profiled := d.Byte()
			if profiled > 1 {
				d.Failf("bad profiled flag %d", profiled)
			}
			ws.Profiled = profiled == 1
			ws.GoldenTasks, ws.GoldenChoices = d.Ints(), d.Ints()
			ws.AnchorQ, ws.AnchorU = d.floats(), d.floats()
		}
	}
	st.Store = d.stats()
	st.StoreProfiles = d.stats()
	st.Log = d.Columns()
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
