package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode drives arbitrary bytes through the format v1 record
// decoder, the segment header reader and the segment scanner, which see
// every byte a boot reads. They sit on the recovery path, where they read
// whatever a crash left on disk, so they must never panic; an accepted v1
// record must re-encode to the exact input, an accepted header is the one
// the writer writes for its version and first sequence number, no payload
// is both, and a format v2 segment that decodes — header, frames and
// worker dictionary — is what the v2 writer writes for its records. Seed
// corpus lives in testdata/fuzz/FuzzWALDecode (checked in).
func FuzzWALDecode(f *testing.F) {
	for _, rec := range goldenRecords() {
		f.Add(rec.encodeV1(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x01})                                                                   // unknown kind
	f.Add([]byte{byte(KindAnswer), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // overlong varint
	f.Add([]byte{byte(KindPublish), 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})                        // blob length > input
	f.Add(headerV1[frameHeaderLen:])
	f.Add(append([]byte(segmentMagic), 0x03)) // a format version this build does not read
	// Format v2 segments: the golden one, cut inside its last frame, and
	// small ones whose dictionary the mutator can break.
	golden, err := os.ReadFile(filepath.Join("testdata", "format_v2.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-3])
	f.Add(appendHeader(nil, 300)[frameHeaderLen:])
	f.Add(segmentV2(1, answerRec("w", 1, 0), answerRec("v", 130, 1), answerRec("w", 2, 1)))
	f.Add(segmentV2(7, Record{Kind: KindSeed, Worker: "s", Blob: []byte{2, 0, 0, 0}}, answerRec("s", 3, 0)))
	f.Fuzz(func(t *testing.T, in []byte) {
		rec, err := Decode(in)
		if version, first, herr := readHeader(in); herr == nil {
			if err == nil {
				t.Fatalf("%x decodes as a header and as a record", in)
			}
			want := headerV1[frameHeaderLen:]
			if version == formatVersion {
				want = appendHeader(nil, first)[frameHeaderLen:]
			}
			if !bytes.Equal(in, want) {
				t.Fatalf("accepted a second header spelling %x", in)
			}
		}
		// Accepted payloads must re-encode to the exact input bytes —
		// otherwise two different byte strings would claim the same record
		// and a log could silently alias after rewrite.
		if got := rec.encodeV1(nil); err == nil && !bytes.Equal(got, in) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", in, got)
		}

		var recs []Record
		st, err := scanBytes("input", in, 0, func(rec Record, _, _ int64) error {
			recs = append(recs, rec)
			return nil
		})
		if err != nil || st.version != formatVersion {
			return // rejected, torn or format v1: fine, as long as we did not panic
		}
		if got := segmentV2(st.firstSeq, recs...); !bytes.Equal(got, in) {
			t.Fatalf("a v2 segment decodes but is not its records' encoding:\n in  %x\n out %x", in, got)
		}
	})
}
