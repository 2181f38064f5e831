// Batch blobs: the encoding of a batched answer submit inside a KindBatch
// record.
//
// The blob reuses this package's frame codec (length + CRC32-C +
// canonical-varint payload), so a batch shares the record stream's
// encoder/decoder and has its own fuzz surface (FuzzBatchDecode). Carrying
// the whole group in one record's blob is what makes a batched submit one
// durable frame — all-or-nothing under the torn-tail rule — instead of N.
//
// Layout:
//
//	magic "DBB1" (4 bytes) | frame(item 1) | frame(item 2) | ...
//
// where each frame payload is a KindAnswer record whose Seq is the item's
// 1-based position in the batch. Positions make the encoding canonical
// (decode rejects any other Seq, so one batch has exactly one encoding)
// and give torn or reordered blobs no way to alias a shorter batch.
package wal

import (
	"bytes"
	"fmt"
)

// batchMagic opens every batch blob. Versioned: a future layout bumps the
// trailing byte.
var batchMagic = []byte("DBB1")

// EncodeBatch appends the blob encoding of a batch of answers to dst.
// Only the Worker/Task/Choice fields of each item are encoded; Seq and
// Kind are derived from the item's position (callers need not set them).
//
//docs:deterministic
func EncodeBatch(dst []byte, items []Record) []byte {
	dst = append(dst, batchMagic...)
	var payload []byte
	for i, it := range items {
		it.Kind = KindAnswer
		it.Seq = uint64(i + 1)
		it.Blob = nil
		payload = it.encode(payload[:0])
		dst = EncodeFrame(dst, payload)
	}
	return dst
}

// DecodeBatch parses a batch blob. A torn, corrupt, or non-canonical blob
// is rejected whole: the enclosing record's CRC already held, so a bad
// frame inside it has no crash excuse.
func DecodeBatch(data []byte) (items []Record, err error) {
	if !bytes.HasPrefix(data, batchMagic) {
		return nil, fmt.Errorf("wal: batch blob lacks magic %q", batchMagic)
	}
	pos := 0
	frames := data[len(batchMagic):]
	intact, err := DecodeFrames(frames, func(payload []byte) error {
		pos++
		rec, err := Decode(payload)
		if err != nil {
			return fmt.Errorf("batch item %d: %w", pos, err)
		}
		if rec.Kind != KindAnswer {
			return fmt.Errorf("batch item %d: kind %d, want answer", pos, rec.Kind)
		}
		if rec.Seq != uint64(pos) {
			return fmt.Errorf("batch item %d: position tag %d (non-canonical)", pos, rec.Seq)
		}
		items = append(items, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if intact < len(frames) {
		return nil, fmt.Errorf("wal: batch blob ends in a torn frame")
	}
	return items, nil
}
