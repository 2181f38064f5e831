package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// The format v1 encoder. Format v1 is read and never written, so its
// encoder lives here: it writes the fixtures older logs are held to, and it
// is the oracle the format v2 log replays against.

// encodeV1 appends r's format v1 payload:
//
//	kind (1 byte) | seq (uvarint) | kind-specific fields
//
// KindAnswer:  len(worker) uvarint | worker bytes | task uvarint | choice uvarint
// KindPublish: len(blob) uvarint | blob bytes
// KindBatch:   len(blob) uvarint | blob bytes
// KindSeed:    len(worker) uvarint | worker bytes | len(blob) uvarint | blob bytes
// KindStore:   as KindSeed
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

// appendFrameV1 appends r's format v1 frame: its payload in an 8-byte frame.
func (r Record) appendFrameV1(dst []byte) []byte {
	return EncodeFrame(dst, r.encodeV1(nil))
}

// WriteV1Log writes recs, numbered from 1, into dir as the format v1 writer
// did when they were appended one at a time: each segment the v1 header
// and then one frame per record, the next segment opening once one holds
// segmentBytes or more.
func WriteV1Log(dir string, recs []Record, segmentBytes int64) error {
	var seg []byte
	first := uint64(1)
	flush := func() error {
		if len(seg) == 0 {
			return nil
		}
		return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", first, segmentSuffix)), seg, 0o644)
	}
	for i, rec := range recs {
		if len(seg) == 0 {
			first = uint64(i + 1)
			seg = append(seg, headerV1...)
		}
		rec.Seq = uint64(i + 1)
		seg = rec.appendFrameV1(seg)
		if int64(len(seg)) >= segmentBytes {
			if err := flush(); err != nil {
				return err
			}
			seg = nil
		}
	}
	return flush()
}

// segmentV2 is what the format v2 writer puts in a segment that starts at
// first and holds recs.
func segmentV2(first uint64, recs ...Record) []byte {
	seg := appendHeader(nil, first)
	var d dictionary
	for _, rec := range recs {
		var intro bool
		var err error
		if seg, intro, err = rec.appendFrame(seg, &d); err != nil {
			panic(err)
		}
		if intro {
			d.add(rec.Worker)
		}
	}
	return seg
}

// UpdateGolden is the -update flag, for the tests outside the package that
// write fixtures with WriteV1Log.
var UpdateGolden = updateGolden
