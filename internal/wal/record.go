package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind tags what a record carries.
//
// The //docs:exhaustive directive makes docs-lint reject any switch over
// Kind that does not handle every constant below: adding a record kind
// fails the lint gate until the encoder, the decoder, and every replay
// consumer have an explicit case for it, so a new kind can never be
// silently skipped by one of them.
//
//docs:exhaustive
type Kind uint8

const (
	// KindAnswer is one accepted worker answer (golden or regular — replay
	// routes both through the orchestrator's Submit, which re-derives the
	// distinction).
	KindAnswer Kind = 1
	// KindPublish is the campaign publication: the published tasks,
	// including the domain vectors DVE computed, so recovery does not
	// depend on the knowledge base being byte-identical across builds. The
	// blob is an opaque core-layer payload (docs/internal/core's
	// publication codec).
	KindPublish Kind = 2
	// KindBatch is one batched-submit group: the blob (EncodeBatch, layout
	// in wire.go) holds N accepted answers. The whole group lives
	// in one frame, so under the torn-tail crash rule it is durable
	// all-or-nothing; replay expands it back into per-answer submits.
	KindBatch Kind = 3
	// KindSeed records a worker-profile seed: the exact statistics (and
	// profiled flag) the orchestrator adopted from the long-run store the
	// moment the worker first became visible to the campaign. The blob is
	// an opaque core-layer payload (float64 bits); logging the bits lets
	// replay RESTORE the seed instead of re-reading the store, whose
	// contents at boot time may postdate the original read.
	KindSeed Kind = 4
	// KindStore is one update of the long-run worker store, whose log holds
	// nothing else (a campaign's holds none): the blob is an opaque
	// docs/internal/store payload keyed to the worker.
	KindStore Kind = 5
)

// Record is one durable event. Seq is assigned by Log.Append and is
// strictly increasing across the whole log.
type Record struct {
	Seq  uint64
	Kind Kind

	// KindAnswer fields; Worker is also set for KindSeed and KindStore.
	Worker string
	Task   int
	Choice int

	// KindPublish payload (the encoded tasks); KindBatch blob;
	// KindSeed and KindStore stats payload.
	Blob []byte
}

// The payload of a record is
//
//	kind (1 byte) | kind-specific fields
//
// KindAnswer:  worker | task uvarint | choice uvarint
// KindPublish: len(blob) uvarint | blob bytes
// KindBatch:   len(blob) uvarint | blob bytes (a wire batch body, see wire.go)
// KindSeed:    worker | len(blob) uvarint | blob bytes
// KindStore:   as KindSeed
//
// with no sequence number: a record's is its segment's first plus its
// position. A worker is named against the segment's dictionary (see
// dictionary).

// appendPayload appends r's payload, its worker named against d,
// and reports whether it introduces the worker, which the caller adds to d
// once the record is accepted.
//
//docs:deterministic
func (r Record) appendPayload(dst []byte, d *dictionary) ([]byte, bool) {
	dst = append(dst, byte(r.Kind))
	intro := false
	switch r.Kind {
	case KindAnswer:
		dst, intro = d.appendWorker(dst, r.Worker)
		dst = binary.AppendUvarint(dst, uint64(r.Task))
		dst = binary.AppendUvarint(dst, uint64(r.Choice))
	case KindPublish, KindBatch:
		dst = binary.AppendUvarint(dst, uint64(len(r.Blob)))
		dst = append(dst, r.Blob...)
	case KindSeed, KindStore:
		dst, intro = d.appendWorker(dst, r.Worker)
		dst = binary.AppendUvarint(dst, uint64(len(r.Blob)))
		dst = append(dst, r.Blob...)
	}
	return dst, intro
}

// recordFrameHeader is the most a record's frame spends before its payload: a
// uvarint no larger than MaxPayload, which takes 4 bytes, and the CRC.
const recordFrameHeader = 4 + 4

// appendFrame appends r as a record frame — length uvarint | CRC32-C
// u32le | payload — and reports whether it introduces its worker to d (see
// appendPayload). A payload over MaxPayload is refused with ErrTooLarge and
// dst comes back as it was.
func (r Record) appendFrame(dst []byte, d *dictionary) ([]byte, bool, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst, intro := r.appendPayload(dst, d)
	payload := dst[start+recordFrameHeader:]
	n := len(payload)
	if n > MaxPayload {
		return dst[:start], false, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	var hdr [recordFrameHeader]byte
	h := binary.AppendUvarint(hdr[:0], uint64(n))
	h = binary.LittleEndian.AppendUint32(h, crc32.Checksum(payload, castagnoli))
	// The length's uvarint is shorter than the placeholder unless the
	// payload is over 2 MiB: close the gap.
	copy(dst[start+len(h):], payload)
	copy(dst[start:], h)
	return dst[:start+len(h)+n], intro, nil
}

// decode parses the payload of record seq through the Cursor, its worker
// fields read against d: it never panics on arbitrary input (the fuzz
// target FuzzWALDecode holds it to that) and rejects payloads with trailing
// garbage, unknown kinds, overlong varints, worker refs the dictionary
// refuses, or fields whose declared lengths exceed the input. A worker the
// record introduces is added to d once the whole record has decoded.
func decode(payload []byte, seq uint64, d *dictionary) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record payload")
	}
	c := NewCursor(payload)
	r := Record{Seq: seq, Kind: Kind(c.Byte())}
	intro := false
	switch r.Kind {
	case KindAnswer:
		r.Worker, intro = d.pop(&c)
		r.Task, r.Choice = c.Int(), c.Int()
	case KindPublish, KindBatch:
		r.Blob = c.Bytes()
	case KindSeed, KindStore:
		r.Worker, intro = d.pop(&c)
		r.Blob = c.Bytes()
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	if err := c.End(); err != nil {
		return r, fmt.Errorf("wal: kind %d record: %w", r.Kind, err)
	}
	if intro {
		d.add(r.Worker)
	}
	return r, nil
}

// dictionary names the workers of one segment. A worker field is
// a ref uvarint: a ref below the dictionary's length names the worker it
// was given to; a ref equal to it introduces a new worker, spelled out
// after it (len uvarint | bytes), who takes that ref. Any other ref, and an
// introduction of a name the dictionary holds, is corruption — so, as in a
// batch blob, the dictionary holds each worker once, in first-use order,
// and one record sequence has one encoding. Every segment starts an empty
// one, so a segment decodes on its own.
type dictionary struct {
	names []string
	refs  map[string]int
}

func (d *dictionary) add(w string) {
	if d.refs == nil {
		d.refs = make(map[string]int)
	}
	d.refs[w] = len(d.names)
	d.names = append(d.names, w)
}

// appendWorker appends w's worker field and reports whether it introduces w.
func (d *dictionary) appendWorker(dst []byte, w string) ([]byte, bool) {
	if ref, ok := d.refs[w]; ok {
		return binary.AppendUvarint(dst, uint64(ref)), false
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.names)))
	dst = binary.AppendUvarint(dst, uint64(len(w)))
	return append(dst, w...), true
}

// pop reads a worker field and reports whether it introduces the worker.
func (d *dictionary) pop(c *Cursor) (string, bool) {
	ref := c.Uvarint()
	switch {
	case c.Err() != nil:
		return "", false
	case ref < uint64(len(d.names)):
		return d.names[ref], false
	case ref > uint64(len(d.names)):
		c.Failf("worker ref %d beyond the %d-entry dictionary", ref, len(d.names))
		return "", false
	}
	w := string(c.Bytes())
	if _, dup := d.refs[w]; dup && c.Err() == nil {
		c.Failf("worker %q introduced again as ref %d", w, ref)
		return "", false
	}
	return w, true
}

// EncodeFrame wraps an arbitrary payload in the 8-byte frame every
// segment's header uses (length u32le + CRC32-C u32le + payload), appending
// to dst. Together with DecodeFrames
// it lets a sibling durable file (the state snapshot) share the torn-write
// detection this package's fuzzing exercises.
func EncodeFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrames walks a byte buffer of 8-byte frames, calling fn on each
// intact payload, and returns how many bytes the intact frames span. A
// frame cut short by the end of the buffer (what a crashed append leaves:
// writes deliver prefixes) stops the walk, so intact < len(data) means a
// torn tail — and is where a writer that appends must first truncate to. A
// frame whose bytes are all present but wrong (CRC mismatch, absurd
// length) is rot, not a tear, and returns an error so callers fail loudly
// instead of silently dropping everything after it.
func DecodeFrames(data []byte, fn func(payload []byte) error) (intact int, err error) {
	off := 0
	for off < len(data) {
		payload, n, err := frame8(data[off:])
		if err != nil {
			return off, fmt.Errorf("%w at offset %d", err, off)
		}
		if n == 0 {
			return off, nil
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}

// frame8 reads the 8-byte frame data opens with: its payload and its size,
// which is 0 when data ends inside it (a torn frame).
func frame8(data []byte) (payload []byte, size int, err error) {
	if len(data) < frameHeaderLen {
		return nil, 0, nil
	}
	n := binary.LittleEndian.Uint32(data)
	if n > MaxPayload {
		return nil, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	size = frameHeaderLen + int(n)
	if len(data) < size {
		return nil, 0, nil
	}
	return checked(data[frameHeaderLen:size], binary.LittleEndian.Uint32(data[4:]), size)
}

// recordFrame reads the record frame data opens with, as frame8 does. A
// length uvarint cut by the end of data is a torn frame too; a non-minimal
// one, or one over MaxPayload, is corruption.
func recordFrame(data []byte) (payload []byte, size int, err error) {
	c := NewCursor(data)
	n := c.Uvarint()
	switch {
	case c.Err() != nil && lengthCut(data):
		return nil, 0, nil
	case c.Err() != nil:
		return nil, 0, fmt.Errorf("%w: frame length: %v", ErrCorrupt, c.Err())
	case n > MaxPayload:
		return nil, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	body := c.Off() + 4
	size = body + int(n)
	if len(data) < size {
		return nil, 0, nil
	}
	return checked(data[body:size], binary.LittleEndian.Uint32(data[body-4:]), size)
}

// lengthCut reports whether data is a prefix of a frame length the writer
// could have written: every byte continues the uvarint, and there are
// fewer than the 4 that a length of MaxPayload takes.
func lengthCut(data []byte) bool {
	if len(data) >= 4 {
		return false
	}
	for _, b := range data {
		if b < 0x80 {
			return false
		}
	}
	return true
}

// checked returns a frame's payload if its CRC holds.
func checked(payload []byte, crc uint32, size int) ([]byte, int, error) {
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, size, nil
}
