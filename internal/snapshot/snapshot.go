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
// serializes that (see docs/internal/core's Hibernate). This package
// is just the codec and the atomic file protocol.
//
// A snapshot holds only what the log and the publication do not already
// determine, and nothing that is multiplied by zero wherever it is read.
// Absent because derivable: the publication itself (PublishSeq names the WAL
// record that carries it — the log is gapless from sequence 1 and segments
// are never deleted), the inference state of a task nothing has touched
// since it was registered (it is the uniform prior
// truth.Incremental.AddTask computes), and each worker's answered-task set
// (the per-worker projection of Log). Absent because dead weight: the rows
// of a task's truth matrix for the domains its vector gives no weight (a
// task relates to one or two of the 26; every reader skips the rest), and
// the entries of a worker's (q, u) statistics that are still the prior (a
// worker has answered in a handful of domains).
//
// # File format
//
//	magic "DOCSSNP4" | one frame: length (u32le) | CRC32-C (u32le) | payload
//
// The payload is binary: an integer is a minimal uvarint, a float64 is its
// 8 raw IEEE-754 bytes little-endian (so "close" can never pass for
// "equal"), a string or slice is a uvarint count followed by its elements.
// Sections come in one fixed order, with no tags and no padding:
//
//	seq | publishSeq | answers | m | baseQ float
//	goldenIDs    []int
//	taskStates   [](id | rows ≥ 1 | cols ≥ 1 | rows×cols floats M̂ | cols floats s)
//	workers      []stats            stats = id string | q sparse | u sparse
//	serving      [](id string | flags | goldenTasks []int | goldenChoices []int |
//	                anchor q sparse | anchor u sparse, the two only with flag 2)
//	store        []stats
//	storeProfiles []stats
//	log          workers []string | w []int | t []int | c []int
//	sparse:      count | count × (index < m | float)     (wal.SparseFloats)
//
// A task state's rows are the domains of the task's support (r_k > 0) in
// ascending order; which domains those are is the publication's to say, and
// the restore checks rows against it. A statistics vector is m long and is
// stored as the entries whose bits differ from its default — baseQ, written
// once, for a quality vector and +0 for a weight vector — so any bit pattern
// round-trips. flags is 1 for a profiled worker plus 2 for one with a pinned
// anchor: "no anchor" and "an anchor that is all defaults" stay distinct.
//
// The encoding is canonical — one State has one byte string, and Decode
// accepts nothing Encode would not produce (overlong varints, a task state
// of no rows, a listed entry equal to its default, an index out of order or
// not below m, flags above 3 and trailing bytes are all corruption) — and
// every count is checked against the bytes that remain before anything is
// allocated.
//
// The magic doubles as the format version. A snapshot with any other
// magic (version 2 was the JSON encoding, version 3 held all m rows of
// every task state and every statistics vector in full) is rejected as
// unreadable and the boot falls back to a full log replay, which
// reconstructs everything from the WAL — an automatic, lossless migration
// paid once per campaign in boot time; the next snapshot pass writes the
// current format.
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

const magic = "DOCSSNP4"

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
	// M is the length of every statistics vector below (the campaign's
	// domain count) and BaseQ the value their quality vectors are held
	// against: a listed entry is one whose bits differ from BaseQ (from +0
	// for a weight vector).
	M     int
	BaseQ float64
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

// WorkerServing is one worker's orchestrator-side serving state. The
// regular tasks she answered are not stored: they are her entries in Log.
type WorkerServing struct {
	ID       string
	Profiled bool
	// GoldenTasks/GoldenChoices are the worker's golden answers in the
	// order profiling consumed them.
	GoldenTasks   []int
	GoldenChoices []int
	// Anchored says a profile anchor is pinned — the long-run store
	// statistics adopted when she was profiled or first seeded — and
	// AnchorQ/AnchorU hold it, like WorkerStats' vectors. Both are empty
	// when no anchor is pinned; they may also be empty when one is (an
	// anchor still at the defaults).
	Anchored bool
	AnchorQ  wal.SparseFloats
	AnchorU  wal.SparseFloats
}

// Encode renders the state as a complete snapshot file image. Snapshots
// are compared bit-for-bit across boots, so Encode is a docs-lint
// determinism root (the encoding is a pure function of the State: fields
// in the package comment's order, floats as raw bits). It fails only on a
// State the format cannot express: a negative integer, a task state with
// no row, an empty S or an M̂ row that is not len(S) long, a statistics
// vector that is not canonical against (M, BaseQ), or anchor entries on a
// worker with no anchor.
//
//docs:deterministic
func Encode(st *State) ([]byte, error) {
	if st.Answers < 0 {
		return nil, fmt.Errorf("snapshot: encode: negative answer count %d", st.Answers)
	}
	e := encoder{m: st.M, baseQ: st.BaseQ}
	e.uvarint(st.Seq)
	e.uvarint(st.PublishSeq)
	e.uvarint(uint64(st.Answers))
	e.int(st.M)
	e.rawFloats([]float64{st.BaseQ})
	e.ints(st.GoldenIDs)
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
	e.stats(st.Workers)
	e.count(len(st.Serving))
	for _, ws := range st.Serving {
		e.str(ws.ID)
		flags := byte(0)
		if ws.Profiled {
			flags |= flagProfiled
		}
		if ws.Anchored {
			flags |= flagAnchored
		}
		e.b = append(e.b, flags)
		e.ints(ws.GoldenTasks)
		e.ints(ws.GoldenChoices)
		if ws.Anchored {
			e.pair(ws.AnchorQ, ws.AnchorU)
		} else if len(ws.AnchorQ.K)+len(ws.AnchorQ.V)+len(ws.AnchorU.K)+len(ws.AnchorU.V) > 0 && e.err == nil {
			e.err = fmt.Errorf("worker %q has anchor entries but no anchor", ws.ID)
		}
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

// The serving section's flag bits.
const (
	flagProfiled = 1 << iota
	flagAnchored
)

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

// pair appends one (q, u) statistic.
func (e *encoder) pair(q, u wal.SparseFloats) {
	e.sparse(q, e.baseQ)
	e.sparse(u, 0)
}

func (e *encoder) stats(ws []WorkerStats) {
	e.count(len(ws))
	for _, w := range ws {
		e.str(w.ID)
		e.pair(w.Q, w.U)
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

// pair pops one (q, u) statistic.
func (d *decoder) pair() (q, u wal.SparseFloats) {
	q = d.SparseFloats(wal.SparseFloats{}, d.m, d.baseQ)
	u = d.SparseFloats(wal.SparseFloats{}, d.m, 0)
	return q, u
}

func (d *decoder) stats() []WorkerStats {
	n := d.Count(3)
	if n == 0 {
		return nil
	}
	out := make([]WorkerStats, n)
	for i := range out {
		out[i].ID = d.str()
		out[i].Q, out[i].U = d.pair()
	}
	return out
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
	st := &State{Seq: d.Uvarint(), PublishSeq: d.Uvarint()}
	answers := d.Uvarint()
	if answers > math.MaxInt64 {
		d.Failf("answer count %d out of range", answers)
	}
	st.Answers = int64(answers)
	st.M, st.BaseQ = d.Int(), math.Float64frombits(d.U64())
	d.m, d.baseQ = st.M, st.BaseQ
	st.GoldenIDs = d.Ints()
	if n := d.Count(19); n > 0 {
		st.TaskStates = make([]TaskState, n)
		for i := range st.TaskStates {
			st.TaskStates[i] = d.taskState()
		}
	}
	st.Workers = d.stats()
	if n := d.Count(4); n > 0 {
		st.Serving = make([]WorkerServing, n)
		for i := range st.Serving {
			ws := &st.Serving[i]
			ws.ID = d.str()
			flags := d.Byte()
			if flags > flagProfiled|flagAnchored {
				d.Failf("bad serving flags %d", flags)
			}
			ws.Profiled, ws.Anchored = flags&flagProfiled != 0, flags&flagAnchored != 0
			ws.GoldenTasks, ws.GoldenChoices = d.Ints(), d.Ints()
			if ws.Anchored {
				ws.AnchorQ, ws.AnchorU = d.pair()
			}
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
