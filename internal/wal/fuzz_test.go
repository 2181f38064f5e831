package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode drives arbitrary bytes through the segment header reader,
// the record decoder and the segment scanner, which see every byte a boot
// reads. They sit on the recovery path, where they read whatever a crash
// left on disk, so they must never panic; an accepted header is the one the
// writer writes for its first sequence number, an accepted record is what
// the writer writes for it, and a segment that decodes — header, frames and
// worker dictionary — is what the writer writes for its records. The seeds
// include the payloads of the golden records and the headers of a retired
// and a later format version, which must be refused.
// Seed corpus lives in testdata/fuzz/FuzzWALDecode (checked in).
func FuzzWALDecode(f *testing.F) {
	for _, rec := range goldenRecords()[:10] {
		p, _ := rec.appendPayload(nil, &dictionary{})
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x01})                                                                   // unknown kind
	f.Add([]byte{byte(KindAnswer), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // overlong varint
	f.Add([]byte{byte(KindPublish), 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})                        // blob length > input
	for _, v := range []byte{formatVersion - 1, formatVersion + 1} {
		header := append([]byte(segmentMagic), v, 0x01)
		if _, err := readHeader(header); !errors.As(err, new(formatError)) {
			f.Fatalf("the format v%d header reads as %v", v, err)
		}
		f.Add(header)
	}
	// Segments: the golden one, cut inside its last frame, and small ones
	// whose dictionary the mutator can break.
	golden, err := os.ReadFile(filepath.Join("testdata", "format_v3.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(appendHeader(nil, 300)[frameHeaderLen:])
	f.Add(segmentOf(1, answerRec("w", 1, 0), answerRec("v", 130, 1), answerRec("w", 2, 1)))
	f.Add(segmentOf(7, Record{Kind: KindSeed, Worker: "s", Blob: []byte{2, 0, 0, 0}}, answerRec("s", 3, 0)))
	f.Fuzz(func(t *testing.T, in []byte) {
		if first, err := readHeader(in); err == nil && !bytes.Equal(in, appendHeader(nil, first)[frameHeaderLen:]) {
			t.Fatalf("accepted a second header spelling %x", in)
		}
		// An accepted payload must re-encode to the exact input bytes —
		// otherwise two different byte strings would claim the same record
		// and a log could silently alias after rewrite.
		if rec, err := decode(in, 1, &dictionary{}); err == nil {
			if got, _ := rec.appendPayload(nil, &dictionary{}); !bytes.Equal(got, in) {
				t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", in, got)
			}
		}

		var recs []Record
		st, err := scanBytes("input", in, 0, func(rec Record, _, _ int64) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil || len(in) == 0 {
			return // rejected or torn: fine, as long as we did not panic
		}
		if got := segmentOf(st.firstSeq, recs...); !bytes.Equal(got, in) {
			t.Fatalf("a segment decodes but is not its records' encoding:\n in  %x\n out %x", in, got)
		}
	})
}
