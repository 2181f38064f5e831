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

// Encode returns the deterministic payload encoding of the record (no
// frame header). The layout is:
//
//	kind (1 byte) | seq (uvarint) | kind-specific fields
//
// KindAnswer:  len(worker) uvarint | worker bytes | task uvarint | choice uvarint
// KindPublish: len(blob) uvarint | blob bytes
// KindBatch:   len(blob) uvarint | blob bytes (a wire batch body, see wire.go)
// KindSeed:    len(worker) uvarint | worker bytes | len(blob) uvarint | blob bytes
// KindStore:   as KindSeed
//
//docs:deterministic
func (r Record) Encode() []byte {
	return r.encode(nil)
}

func (r Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Kind))
	dst = binary.AppendUvarint(dst, r.Seq)
	switch r.Kind {
	case KindAnswer:
		dst = binary.AppendUvarint(dst, uint64(len(r.Worker)))
		dst = append(dst, r.Worker...)
		dst = binary.AppendUvarint(dst, uint64(r.Task))
		dst = binary.AppendUvarint(dst, uint64(r.Choice))
	case KindPublish, KindBatch:
		dst = binary.AppendUvarint(dst, uint64(len(r.Blob)))
		dst = append(dst, r.Blob...)
	case KindSeed, KindStore:
		dst = binary.AppendUvarint(dst, uint64(len(r.Worker)))
		dst = append(dst, r.Worker...)
		dst = binary.AppendUvarint(dst, uint64(len(r.Blob)))
		dst = append(dst, r.Blob...)
	}
	return dst
}

// appendFrame appends the framed (length + CRC + payload) encoding.
func (r Record) appendFrame(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	dst = r.encode(dst)
	payload := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// Decode parses a payload produced by Encode, through the Cursor: it never
// panics on arbitrary input (the fuzz target FuzzWALDecode holds it to
// that) and rejects payloads with trailing garbage, unknown kinds, overlong
// varints, or fields whose declared lengths exceed the input.
func Decode(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record payload")
	}
	c := NewCursor(payload)
	r := Record{Kind: Kind(c.Byte()), Seq: c.Uvarint()}
	switch r.Kind {
	case KindAnswer:
		r.Worker = string(c.Bytes())
		r.Task, r.Choice = c.Int(), c.Int()
	case KindPublish, KindBatch:
		r.Blob = c.Bytes()
	case KindSeed, KindStore:
		r.Worker = string(c.Bytes())
		r.Blob = c.Bytes()
	default:
		return r, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	if err := c.End(); err != nil {
		return r, fmt.Errorf("wal: kind %d record: %w", r.Kind, err)
	}
	return r, nil
}

// EncodeFrame wraps an arbitrary payload in the WAL's frame format
// (length + CRC32-C + payload), appending to dst. Together with
// DecodeFrames it lets a sibling durable file (the state snapshot) share
// the torn-write detection this package's fuzzing exercises.
func EncodeFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeFrames walks a byte buffer of frames, calling fn on each intact
// payload, and returns how many bytes the intact frames span. A frame cut
// short by the end of the buffer (what a crashed append leaves: writes
// deliver prefixes) stops the walk, so intact < len(data) means a torn
// tail — and is where a writer that appends must first truncate to. A
// frame whose bytes are all present but wrong (CRC mismatch, absurd
// length) is rot, not a tear, and returns an error so callers fail loudly
// instead of silently dropping everything after it.
func DecodeFrames(data []byte, fn func(payload []byte) error) (intact int, err error) {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return off, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if n > MaxPayload {
			return off, fmt.Errorf("%w: frame length %d at offset %d", ErrCorrupt, n, off)
		}
		if len(rest) < frameHeaderLen+int(n) {
			return off, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.Checksum(payload, castagnoli) != crc {
			return off, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += frameHeaderLen + int(n)
	}
	return off, nil
}
