package wal

import "encoding/binary"

// encodeV1 appends r's format v1 payload, the record layout formats v0 and
// v1 shared:
//
//	kind (1 byte) | seq (uvarint) | kind-specific fields
//
// KindAnswer:  len(worker) uvarint | worker bytes | task uvarint | choice uvarint
// KindPublish: len(blob) uvarint | blob bytes
// KindBatch:   len(blob) uvarint | blob bytes
// KindSeed:    len(worker) uvarint | worker bytes | len(blob) uvarint | blob bytes
// KindStore:   as KindSeed
//
// Nothing reads it any more: it writes the older segments the refusals are
// tested on and seeds FuzzWALDecode with payloads it must refuse.
func (r Record) encodeV1(dst []byte) []byte {
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
