package wal

import (
	"bytes"
	"testing"
)

// FuzzWALDecode drives arbitrary bytes through the record decoder and the
// segment header reader, which see every frame payload a boot reads. They
// sit on the recovery path, where they read whatever a crash left on disk,
// so they must never panic; an accepted record must re-encode to the exact
// input, the one accepted header is the one the writer writes, and no
// payload is both. Seed corpus lives in testdata/fuzz/FuzzWALDecode
// (checked in).
func FuzzWALDecode(f *testing.F) {
	for _, rec := range goldenRecords() {
		f.Add(rec.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x03, 0x01})                                                                   // unknown kind
	f.Add([]byte{byte(KindAnswer), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // overlong varint
	f.Add([]byte{byte(KindPublish), 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f})                        // blob length > input
	f.Add(segmentHeader[frameHeaderLen:])
	f.Add(append([]byte(segmentMagic), 0x02)) // a format version this build does not read
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := Decode(payload)
		if readHeader(payload) == nil {
			if err == nil {
				t.Fatalf("%x decodes as a header and as a record", payload)
			}
			if !bytes.Equal(payload, segmentHeader[frameHeaderLen:]) {
				t.Fatalf("accepted a second header spelling %x", payload)
			}
		}
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		// Accepted payloads must re-encode to the exact input bytes —
		// otherwise two different byte strings would claim the same record
		// and a log could silently alias after rewrite.
		if got := rec.Encode(); !bytes.Equal(got, payload) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", payload, got)
		}
	})
}
