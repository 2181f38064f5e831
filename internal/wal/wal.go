// Package wal is the durable answer log of the DOCS serving core: a
// segmented, CRC-checked write-ahead log whose replay reconstructs a
// campaign exactly.
//
// The paper keeps worker quality vectors and task truth in the system
// database so campaigns survive requesters coming and going; this package
// is the reproduction's equivalent for the serving state that PR 1 moved
// into memory. Every accepted Submit appends one record; recovery replays
// the records through the orchestrator's serial submit path, and because
// the concurrent serving core was proven equivalent to a serial replay of
// its chronological answer log, the recovered state is exact by
// construction rather than by approximation.
//
// # On-disk format
//
// A log is a directory of segment files named <firstSeq:016x>.wal. They are
// the only copy of the record stream and are never deleted, so sequence
// numbers count up from 1 without a hole; replay reports a hole (a missing
// segment) as corruption. Each segment is a header frame and then one frame
// per record:
//
//	header | length u32le   | CRC32-C u32le | "DWAL" | 3 uvarint | firstSeq uvarint |
//	record | length uvarint | CRC32-C u32le | kind | fields (no sequence number)   |
//
// The header keeps the 8-byte frame every format has used, so any build can
// read the version. It is written with the segment's first records, so an
// unwritten segment is a zero-byte file, and it is no record. A record's
// sequence number is the header's firstSeq plus its position, and firstSeq
// must be the one the file is named for. A record names its worker through
// the segment's dictionary (see dictionary), so a worker is spelled out
// once a segment.
//
// The header's version is the one format number of every durable byte:
// the segments' frames and records, the blobs the records carry (a
// publication, a batch, a seed, a store update) and the snapshot beside
// them. Any change to any of those layouts bumps it. A segment opening with
// anything but a header is version 0, and a log holding a segment of any
// version but formatVersion is refused whole (formatError), by every entry
// point, before anything in the directory is truncated or appended. The
// refusal names the last commit that reads the version (lastReader).
//
// The CRC covers the payload only. A frame whose bytes end before the
// length it declares, or inside the length itself (writes deliver
// prefixes, so this is what a crashed append leaves behind), is a torn
// write: at the tail of the last segment it is expected and silently
// dropped — the submit it carried was never acknowledged durable — and
// anywhere else it is corruption. A frame whose bytes are all present but
// wrong (CRC mismatch, absurd or non-minimal length, undecodable payload)
// cannot come from a torn append and always fails replay loudly, so rot
// never silently truncates acknowledged records.
//
// The encoding is deterministic — a segment's bytes are a function of the
// record sequence, whatever the group commits that wrote it — which the
// golden-format test pins down so the format cannot drift silently.
//
// # Group commit
//
// Append encodes the record under a short lock and then waits for the
// background flusher to write its batch; concurrent appenders share one
// write (and one fsync, when SyncEveryBatch is set) per batch, so the
// sharded ingest path keeps its throughput. Rotation is decided at the
// same lock: a record that would start past SegmentBytes opens the next
// segment, and the flusher rotates where the queue says. Durability levels:
//
//	SyncNever      frames reach the OS on every batch flush; fsync only on
//	               segment rotation and Close. Survives process crashes,
//	               not power loss.
//	SyncEveryBatch one fsync per group-commit batch. Survives power loss
//	               at the cost of one fsync amortized over the batch.
//
// Append returns only after the record's batch reached the chosen level,
// so an acknowledged submit is durable under the configured contract.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncPolicy selects the durability level of Append.
type SyncPolicy int

const (
	// SyncNever writes batches to the OS without fsync (fsync still runs on
	// rotation and Close).
	SyncNever SyncPolicy = iota
	// SyncEveryBatch fsyncs once per group-commit batch.
	SyncEveryBatch
)

// Options tunes a Log. The zero value is ready to use.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one exceeds
	// this size (default 8 MiB, minimum 1 KiB).
	SegmentBytes int64
	// Sync is the durability level (default SyncNever).
	Sync SyncPolicy
}

const (
	defaultSegmentBytes = 8 << 20
	minSegmentBytes     = 1 << 10
	segmentSuffix       = ".wal"
	frameHeaderLen      = 8
	// MaxPayload bounds a single record; the length prefix of a frame
	// claiming more is treated as corruption, which keeps the decoder from
	// allocating attacker-controlled amounts.
	MaxPayload = 16 << 20
	// MaxBlob is the largest Blob a KindPublish or KindBatch record is sure
	// to fit under MaxPayload with: the cap less the kind byte and two
	// maximal uvarints (the blob's length, and a margin that keeps the
	// largest publication accepted what it was when records logged their
	// sequence number). A caller that must refuse an over-size write before
	// it mutates anything checks against this; Reserve checks the record
	// itself.
	MaxBlob = MaxPayload - 1 - 2*binary.MaxVarintLen64
	// segmentMagic and formatVersion open the header frame's payload.
	segmentMagic  = "DWAL"
	formatVersion = 3
)

// appendHeader appends the header frame of a segment whose first record is
// firstSeq: "DWAL" | formatVersion uvarint | firstSeq uvarint, in an 8-byte
// frame.
func appendHeader(dst []byte, firstSeq uint64) []byte {
	var b [len(segmentMagic) + 1 + binary.MaxVarintLen64]byte
	payload := binary.AppendUvarint(append(b[:0], segmentMagic...), formatVersion)
	return EncodeFrame(dst, binary.AppendUvarint(payload, firstSeq))
}

// lastReader names, for each format version before formatVersion, the last
// commit that reads it. Version 0 is a segment with no header. A bump adds
// the version it retires here and no other code.
var lastReader = [formatVersion]string{"af9f454", "a3e04fd", "21c7a3e"}

// formatError refuses a segment of a format version this build does not
// read.
type formatError uint64

func (v formatError) Error() string {
	msg := fmt.Sprintf("wal: format v%d; this build reads v%d", uint64(v), formatVersion)
	if v < formatVersion {
		msg += fmt.Sprintf("; %s is the last commit that reads v%d", lastReader[v], uint64(v))
	}
	return msg
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt wraps frame-level corruption found before the final torn tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrTooLarge is returned by Reserve for a record whose payload exceeds
// MaxPayload — one every later read of the log would reject as corrupt.
var ErrTooLarge = errors.New("wal: record exceeds MaxPayload")

// Log is an open write-ahead log. It is safe for concurrent Append.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when flushed or err advances
	buf     []byte     // encoded frames waiting for the flusher
	cuts    []cut      // where buf moves on to a new segment, in order
	seq     uint64     // last assigned sequence number
	pending uint64     // last sequence number sitting in buf
	flushed uint64     // last sequence number durable per policy
	err     error      // sticky: first I/O failure poisons the log
	closed  bool

	// The segment Reserve encodes into: the last one, as far as queued.
	dict     dictionary // the workers its records name
	reserved int64      // its bytes, header included, written or queued

	// ioMu guards the active-segment file handle across the flusher's
	// writes/rotations and Sync/Close's fsyncs. Lock order: ioMu before mu,
	// never the reverse.
	ioMu sync.Mutex
	f    *os.File // active segment
	size int64    // bytes written to the active segment
	// dirty is set before any write to or truncation of the active segment
	// and cleared only by a successful fsync of it; Sync and Close skip the
	// syscall while it is clear. A log opened over an existing segment
	// cannot know what an earlier process left unsynced and starts dirty.
	dirty bool

	flusherC    chan struct{}
	done        chan struct{}
	flusherDone chan struct{}
}

// Open opens (creating if needed) the log directory and positions the
// writer after the last valid record. It does NOT replay records — use
// Replay first when recovering, then Open to continue appending. If the
// last segment ends in a torn frame the tail is truncated away so new
// frames never follow garbage. The parent of each directory Open creates is
// fsynced, so no acknowledged record outlives the name that reaches it.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SegmentBytes < minSegmentBytes {
		opts.SegmentBytes = minSegmentBytes
	}
	if err := mkdirDurable(dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir: dir, opts: opts,
		flusherC:    make(chan struct{}, 1),
		done:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)

	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
	} else {
		// Scan the last segment to find the end of valid data, the last
		// sequence number and the dictionary; truncate a torn tail in place.
		last := segs[len(segs)-1]
		next := last.firstSeq
		end := int64(0)
		scan, serr := scanInOrder(dir, last, &next, func(_ Record, _, off int64) error {
			end = off
			return nil
		})
		if serr != nil && !errors.Is(serr, errTornTail) {
			return nil, serr
		}
		f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.dirty = true
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.size, l.reserved, l.dict = f, end, end, scan.dict
		l.seq, l.pending, l.flushed = next-1, next-1, next-1
	}
	go l.flusher()
	return l, nil
}

// Pending is a reservation handed out by Reserve: the record has a
// sequence number and sits in the flusher's queue, but is not yet durable.
type Pending struct {
	l   *Log
	seq uint64
}

// Seq returns the reserved sequence number.
func (p Pending) Seq() uint64 { return p.seq }

// Wait blocks until the reservation's group-commit batch is durable per
// the sync policy (or the log is poisoned by an I/O error). The zero
// Pending reserves nothing and returns at once.
func (p Pending) Wait() error {
	l := p.l
	if l == nil {
		return nil
	}
	l.mu.Lock()
	for l.flushed < p.seq && l.err == nil {
		l.cond.Wait()
	}
	landed := l.flushed >= p.seq // batch made it down before any failure
	err := l.err
	l.mu.Unlock()
	if landed {
		return nil
	}
	return err
}

// cut marks where the queued bytes move on to a new segment.
type cut struct {
	off      int    // offset in the queue of the new segment's header
	firstSeq uint64 // the sequence number the new segment starts at
}

// Reserve encodes the record, assigns it the next sequence number and
// queues it for the flusher without waiting. Callers that need an ordering
// guarantee relative to their own state can Reserve under their own lock —
// reservation order is durable order — and Wait outside it, preserving
// group-commit batching. Record.Seq is ignored on input. A record too
// large to be read back (ErrTooLarge) is refused whole: it takes no
// sequence number, nothing of it reaches the file, and the log stays
// usable.
//
// Reserve also decides the segment a record lands in: one that would start
// at or past SegmentBytes opens the next segment with an empty dictionary.
// So the record is encoded against the dictionary it is read back with, and
// a segment's bytes depend on the record sequence alone, not on how group
// commits batched it.
func (l *Log) Reserve(rec Record) (Pending, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Pending{}, ErrClosed
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return Pending{}, err
	}
	seq := l.seq + 1
	start := len(l.buf)
	next := l.reserved >= l.opts.SegmentBytes
	dict, reserved := &l.dict, l.reserved
	if next {
		dict, reserved = &dictionary{}, 0
	}
	if reserved == 0 {
		l.buf = appendHeader(l.buf, seq)
	}
	buf, intro, err := rec.appendFrame(l.buf, dict)
	if err != nil {
		l.buf = l.buf[:start]
		l.mu.Unlock()
		return Pending{}, err
	}
	if next {
		l.cuts = append(l.cuts, cut{off: start, firstSeq: seq})
		l.dict = *dict
	}
	if intro {
		l.dict.add(rec.Worker)
	}
	l.buf, l.reserved = buf, reserved+int64(len(buf)-start)
	l.seq = seq
	l.pending = seq
	l.mu.Unlock()
	select {
	case l.flusherC <- struct{}{}:
	default: // a wakeup is already queued; the flusher will see our bytes
	}
	return Pending{l: l, seq: seq}, nil
}

// Append is Reserve followed by Wait: it blocks until the record's
// group-commit batch is durable and returns the assigned sequence number.
func (l *Log) Append(rec Record) (uint64, error) {
	p, err := l.Reserve(rec)
	if err != nil {
		return 0, err
	}
	return p.seq, p.Wait()
}

// LastSeq returns the sequence number of the last durable record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushed
}

// ReservedSeq returns the last assigned sequence number — reservations
// included, durable or not. On a quiescent log (no reservation in flight)
// it is the sequence the next record will follow, which is what a state
// snapshot of a quiescent system covers.
func (l *Log) ReservedSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Sync flushes any pending batch and fsyncs the active segment, unless
// every byte of it is already known synced.
func (l *Log) Sync() error {
	l.mu.Lock()
	for l.flushed < l.pending && l.err == nil {
		l.cond.Wait()
	}
	err := l.err
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.syncActive(); err != nil {
		return l.poison(err)
	}
	return nil
}

// syncActive fsyncs the active segment if any byte of it may be unsynced.
// Callers hold ioMu. A failed fsync leaves dirty set: the kernel may have
// dropped the pages, so nothing about the file is known any more.
func (l *Log) syncActive() error {
	if !l.dirty {
		return nil
	}
	if err := fsync(l.f); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// Close flushes, fsyncs (see Sync) and closes the log. Appends after Close
// fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.flusherDone
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	<-l.flusherDone // the flusher drains the buffer before exiting
	l.mu.Lock()
	err := l.err
	l.mu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	if l.f != nil {
		if serr := l.syncActive(); err == nil {
			err = serr
		}
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// poison records the first I/O error and wakes every waiter.
func (l *Log) poison(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = fmt.Errorf("wal: %w", err)
	}
	err = l.err
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// flusher is the group-commit loop: it grabs whatever frames accumulated
// since its last pass, writes them in one syscall per segment they span,
// rotating where Reserve cut, fsyncs per policy, then wakes the appenders
// it covered.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.done:
		case <-l.flusherC:
		}
		l.mu.Lock()
		batch, cuts := l.buf, l.cuts
		upTo := l.pending
		l.buf, l.cuts = nil, nil
		closed := l.closed
		poisoned := l.err != nil
		l.mu.Unlock()
		// A poisoned log writes nothing more: its waiters fail on l.err.
		if len(batch) > 0 && !poisoned {
			landed, err := l.writeBatch(batch, cuts, upTo)
			l.mu.Lock()
			if err != nil && l.err == nil {
				l.err = fmt.Errorf("wal: %w", err)
			}
			l.flushed = max(l.flushed, landed)
			l.cond.Broadcast()
			l.mu.Unlock()
		}
		if closed {
			// Append fails once closed is set, so the buffer cannot grow
			// again: one more pass drains anything that raced in.
			l.mu.Lock()
			empty := len(l.buf) == 0
			l.mu.Unlock()
			if empty {
				return
			}
		}
	}
}

// writeBatch lands one group-commit batch ending at sequence upTo, moving
// on to a new segment at each cut, and returns the last sequence number
// that reached the policy's durability: upTo, or on a failure the last one
// a rotation sealed before it (0 when none did).
func (l *Log) writeBatch(batch []byte, cuts []cut, upTo uint64) (uint64, error) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	landed, from := uint64(0), 0
	for _, c := range cuts {
		if err := l.write(batch[from:c.off], false); err != nil {
			return landed, err
		}
		// Rotation fsyncs what it seals, whatever the policy.
		if err := l.rotate(c.firstSeq); err != nil {
			return landed, err
		}
		landed, from = c.firstSeq-1, c.off
	}
	if err := l.write(batch[from:], l.opts.Sync == SyncEveryBatch); err != nil {
		return landed, err
	}
	return upTo, nil
}

// write appends p to the active segment, fsyncing it after when sync is
// set. Callers hold ioMu.
func (l *Log) write(p []byte, sync bool) error {
	if len(p) == 0 {
		return nil
	}
	l.dirty = true
	_, err := l.f.Write(p)
	if err == nil && sync {
		err = l.syncActive()
	}
	if err != nil {
		// No record of these bytes is acknowledged, so they come back out
		// (best effort): a later boot must not replay what was refused.
		_ = l.f.Truncate(l.size)
		return err
	}
	l.size += int64(len(p))
	return nil
}

// rotate seals the active segment (fsync + close) and opens the next one,
// named by the first sequence number it will hold. Callers hold ioMu.
func (l *Log) rotate(nextSeq uint64) error {
	if err := l.syncActive(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(nextSeq)
}

func (l *Log) openSegment(firstSeq uint64) error {
	name := filepath.Join(l.dir, fmt.Sprintf("%016x%s", firstSeq, segmentSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// Persist the directory entry: fsyncing the file alone does not make
	// its existence durable, and a segment that vanishes on power loss
	// takes every fsynced record inside it along.
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// mkdirDurable creates dir and any missing ancestor, fsyncing the parent of
// each directory it creates; an existing name costs one failed mkdir.
func mkdirDurable(dir string) error {
	parent := filepath.Dir(dir)
	err := os.Mkdir(dir, 0o755)
	switch {
	case err == nil:
		return SyncDir(parent)
	case errors.Is(err, os.ErrExist):
		return nil
	case errors.Is(err, os.ErrNotExist) && parent != dir:
		if err := mkdirDurable(parent); err != nil {
			return err
		}
		return mkdirDurable(dir)
	}
	return err
}

// --- segment discovery and replay ---

type segmentInfo struct {
	name     string
	firstSeq uint64
}

// legacyCheckpointName is a file older versions wrote into the log
// directory; segments refuses a directory that still holds one.
const legacyCheckpointName = "checkpoint"

func segments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		name := e.Name()
		if name == legacyCheckpointName {
			// Older versions moved the log's prefix into this file and deleted
			// the segments it covered; reading the segments alone would boot
			// with that prefix silently missing.
			return nil, fmt.Errorf("wal: %s holds a legacy %q file, which this version cannot read: its records may no longer be in the segments",
				dir, name)
		}
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		seq, ok := segmentSeq(name)
		if !ok {
			return nil, fmt.Errorf("wal: alien file %q in log directory", name)
		}
		segs = append(segs, segmentInfo{name: name, firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	// A log in a format this build does not read shows it in its first
	// segment: a build appends only its own version, after the versions
	// before it. Open and TailSeq scan only the last segments, so the first
	// one's head is checked here (a lone segment, every caller scans whole).
	if len(segs) > 1 {
		if err := refuseFormat(filepath.Join(dir, segs[0].name), segs[0].firstSeq); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// refuseFormat returns the refusal of a segment in another format version,
// read from its head — enough bytes for any header and no more.
func refuseFormat(path string, named uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	head := make([]byte, frameHeaderLen+len(segmentMagic)+2*binary.MaxVarintLen64)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := scanBytes(path, head[:n], named, nop); errors.As(err, new(formatError)) {
		return err
	}
	return nil
}

// segmentSeq returns the first sequence number a segment's file name
// carries, <firstSeq:016x>.wal.
func segmentSeq(name string) (uint64, bool) {
	seq, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
	return seq, err == nil && strings.HasSuffix(name, segmentSuffix)
}

// errTornTail is ScanSegment's signal that the segment ends mid-frame.
var errTornTail = errors.New("wal: torn tail")

// nop is a ScanSegment callback that wants no record.
func nop(Record, int64, int64) error { return nil }

// ScanSegment decodes one segment file, calling fn for every valid record
// with the byte offsets [start, end) of its frame.
//
// It distinguishes two failure shapes. A crashed append leaves a PREFIX of
// the intended bytes at end-of-file (writes deliver prefixes), so a frame
// whose length, header or payload extends past EOF is a torn tail,
// reported as errTornTail (wrapped) — callers tolerate it in the final
// segment. Bytes that are all present but wrong — a CRC mismatch, an
// absurd length field, an undecodable payload, a header whose firstSeq is
// not the one the file is named for — cannot come from a torn append; they
// are rot or tampering and are reported as ErrCorrupt so acknowledged
// records after them are never silently truncated away. A cut header is a
// torn tail too; a segment opening with anything else, or with the header
// of another format version, is refused (formatError). It is exported for
// one caller outside this package: the test kit internal/crashtest, which
// cuts crash images at its frame offsets.
func ScanSegment(path string, fn func(rec Record, start, end int64) error) error {
	_, err := scanSegment(path, fn)
	return err
}

// scanned is what a scan learns of a segment besides its records.
type scanned struct {
	firstSeq uint64     // from the header; 0 for an empty segment
	dict     dictionary // as the segment's intact records left it
}

func scanSegment(path string, fn func(rec Record, start, end int64) error) (scanned, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scanned{}, fmt.Errorf("wal: %w", err)
	}
	first, _ := segmentSeq(filepath.Base(path))
	return scanBytes(path, data, first, fn)
}

// scanBytes is ScanSegment over a segment's bytes. named is the firstSeq
// the segment's file is named for, 0 when the name says none; name
// prefixes the errors.
func scanBytes(name string, data []byte, named uint64, fn func(rec Record, start, end int64) error) (scanned, error) {
	var st scanned
	if len(data) == 0 {
		return st, nil
	}
	payload, off, err := frame8(data)
	switch {
	case err != nil:
		return st, fmt.Errorf("%s: segment header: %w", name, err)
	case off == 0 && named > 0 && bytes.HasPrefix(appendHeader(nil, named), data):
		return st, fmt.Errorf("%s: truncated header: %w", name, errTornTail)
	case off == 0:
		return st, fmt.Errorf("%s: %w", name, formatError(0)) // the first frame is cut short and no header
	}
	if st.firstSeq, err = readHeader(payload); err != nil {
		return st, fmt.Errorf("%s: %w", name, err)
	}
	if named > 0 && st.firstSeq != named {
		return st, fmt.Errorf("%w: %s: header says first sequence number %d", ErrCorrupt, name, st.firstSeq)
	}
	for seq := st.firstSeq; off < len(data); seq++ {
		payload, n, err := recordFrame(data[off:])
		if err != nil {
			return st, fmt.Errorf("%s: %w at offset %d", name, err, off)
		}
		if n == 0 {
			return st, fmt.Errorf("%s: truncated frame at %d: %w", name, off, errTornTail)
		}
		rec, err := decode(payload, seq, &st.dict)
		if err != nil {
			return st, fmt.Errorf("%s: %w: offset %d: %v", name, ErrCorrupt, off, err)
		}
		if err := fn(rec, int64(off), int64(off+n)); err != nil {
			return st, err // the caller's own error, as it returned it
		}
		off += n
	}
	return st, nil
}

// readHeader checks the payload of a segment's first frame, which must be a
// header of formatVersion, and returns its first sequence number.
func readHeader(payload []byte) (firstSeq uint64, err error) {
	if !bytes.HasPrefix(payload, []byte(segmentMagic)) {
		return 0, formatError(0)
	}
	c := NewCursor(payload[len(segmentMagic):])
	if version := c.Uvarint(); c.Err() == nil && version != formatVersion {
		return 0, formatError(version)
	}
	if firstSeq = c.Uvarint(); firstSeq == 0 && c.Err() == nil {
		c.Failf("first sequence number 0")
	}
	if err := c.End(); err != nil {
		return 0, fmt.Errorf("%w: segment header: %v", ErrCorrupt, err)
	}
	return firstSeq, nil
}

// scanInOrder is scanSegment under the gapless rule: segments are never
// deleted, so the log counts up from sequence 1 without holes. seg must
// start at *next and each of its records must be the one after the last;
// *next advances past every record delivered. Anything else means a segment
// (or part of one) is missing and is reported as ErrCorrupt.
func scanInOrder(dir string, seg segmentInfo, next *uint64, fn func(rec Record, start, end int64) error) (scanned, error) {
	if seg.firstSeq != *next {
		return scanned{}, fmt.Errorf("%w: segment %s where seq %d was expected: a segment is missing", ErrCorrupt, seg.name, *next)
	}
	return scanSegment(filepath.Join(dir, seg.name), func(rec Record, start, end int64) error {
		if rec.Seq != *next {
			return fmt.Errorf("%w: %s: record seq %d where %d was expected", ErrCorrupt, seg.name, rec.Seq, *next)
		}
		*next++
		return fn(rec, start, end)
	})
}

// ReplayStats summarizes a Replay pass.
type ReplayStats struct {
	// Records is the number of valid records delivered to the callback.
	Records int
	// LastSeq is the sequence number of the last valid record (0 if none).
	LastSeq uint64
	// TornTail is true when the final segment ended in a torn frame that
	// was dropped.
	TornTail bool
}

// Replay streams every valid record in the log directory, in sequence
// order, to fn. A torn frame at the tail of the last segment is tolerated
// and reported via ReplayStats.TornTail; torn or corrupt data anywhere
// else, or a hole in the sequence numbers (a missing segment, or a first
// segment that does not start at sequence 1), fails with ErrCorrupt. A
// missing directory replays zero records.
func Replay(dir string, fn func(rec Record) error) (ReplayStats, error) {
	var st ReplayStats
	segs, err := segments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	next := uint64(1)
	for i, seg := range segs {
		_, serr := scanInOrder(dir, seg, &next, func(rec Record, _, _ int64) error {
			st.Records++
			st.LastSeq = rec.Seq
			return fn(rec)
		})
		if serr == nil {
			continue
		}
		if errors.Is(serr, errTornTail) && i == len(segs)-1 {
			st.TornTail = true
			return st, nil
		}
		if errors.Is(serr, errTornTail) {
			return st, fmt.Errorf("%w: %v", ErrCorrupt, serr)
		}
		return st, serr
	}
	return st, nil
}

// TailSeq returns the sequence number of the last intact record in the
// directory's segments (0 when there are none), tolerating a torn tail in
// the final segment. It bounds what a recovery can possibly replay — the
// guard a state snapshot must pass before it is trusted: a snapshot
// claiming to cover sequences the durable log does not hold (possible
// after a power loss under SyncNever) would silently resurrect
// unacknowledged state, so such a snapshot is rejected and the boot falls
// back to a full replay.
func TailSeq(dir string) (uint64, error) {
	segs, err := segments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	// Walk backwards: a freshly rotated final segment can be empty, in
	// which case the tail lives in the previous one.
	for i := len(segs) - 1; i >= 0; i-- {
		next := segs[i].firstSeq
		_, serr := scanInOrder(dir, segs[i], &next, nop)
		if serr != nil && !errors.Is(serr, errTornTail) {
			return 0, serr
		}
		if serr != nil && i != len(segs)-1 {
			return 0, fmt.Errorf("%w: %v", ErrCorrupt, serr)
		}
		if next > segs[i].firstSeq {
			return next - 1, nil
		}
	}
	return 0, nil
}
