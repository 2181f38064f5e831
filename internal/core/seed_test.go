package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// sampleSeed is a seed over m = 3 domains with the floats a codec could
// mangle: −0, a denormal, a value that is not a short decimal.
func sampleSeed() *truth.Stats {
	return &truth.Stats{
		Q: model.QualityVector{0.7, math.Copysign(0, -1), 1.0 / 3},
		U: []float64{2, math.Float64frombits(1), 0},
	}
}

func mustEncodeSeed(t testing.TB, st *truth.Stats, profiled bool) []byte {
	t.Helper()
	blob, err := encodeSeed(st, profiled)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// checkSeedDecode holds decodeSeed to the canonical-format contract on
// arbitrary bytes: it never panics, and whatever it accepts re-encodes to
// exactly the bytes it was given.
func checkSeedDecode(t *testing.T, data []byte, m int) {
	t.Helper()
	st, profiled, err := decodeSeed(data, m)
	if err != nil {
		if st != nil {
			t.Fatalf("decodeSeed returned statistics beside error %v", err)
		}
		return
	}
	if again := mustEncodeSeed(t, st, profiled); !bytes.Equal(again, data) {
		t.Fatalf("accepted a seed that re-encodes differently:\n in  %x\n out %x", data, again)
	}
}

// TestSeedBlobIsCanonical: a seed has one encoding. The domain count
// written as a non-minimal varint (m = 26 as 0x9a 0x00, the rest of the
// blob untouched) is refused like any other overlong integer in the log.
func TestSeedBlobIsCanonical(t *testing.T) {
	const m = 26
	st := &truth.Stats{Q: make(model.QualityVector, m), U: make([]float64, m)}
	for k := range st.Q {
		st.Q[k], st.U[k] = 0.5+float64(k)/100, float64(k)
	}
	blob := mustEncodeSeed(t, st, true)
	if blob[0] != m {
		t.Fatalf("blob opens with %#x, want the one-byte count %#x", blob[0], m)
	}
	checkSeedDecode(t, blob, m)
	if _, _, err := decodeSeed(blob, m); err != nil {
		t.Fatalf("the valid blob does not decode: %v", err)
	}
	overlong := append([]byte{0x80 | m, 0x00}, blob[1:]...)
	if got, _, err := decodeSeed(overlong, m); err == nil {
		t.Fatalf("a second encoding of the same seed decoded (%d domains)", len(got.Q))
	}
}

// TestSeedDecodeDamage is TestPublicationDecodeDamage for the seed blob:
// every truncation errors, and every single-bit flip of a valid blob either
// errors or decodes to something that re-encodes to those exact bytes.
func TestSeedDecodeDamage(t *testing.T) {
	for _, profiled := range []bool{false, true} {
		data := mustEncodeSeed(t, sampleSeed(), profiled)
		checkSeedDecode(t, data, 3)
		for cut := 0; cut < len(data); cut++ {
			if st, _, err := decodeSeed(data[:cut], 3); err == nil || st != nil {
				t.Fatalf("truncated at %d: decoded", cut)
			}
		}
		for bit := 0; bit < 8*len(data); bit++ {
			flipped := append([]byte(nil), data...)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkSeedDecode(t, flipped, 3)
		}
		for name, blob := range map[string][]byte{
			"trailing byte":        append(append([]byte(nil), data...), 0),
			"another domain count": append([]byte{4}, data[1:]...),
			"profiled flag of 2":   append([]byte{data[0], 2}, data[2:]...),
			"default q listed":     append(binary.LittleEndian.AppendUint64([]byte{3, 0, 1, 0}, math.Float64bits(truth.DefaultQuality)), 0),
			"negative weight":      mustEncodeSeed(t, &truth.Stats{Q: sampleSeed().Q, U: []float64{1, -1, 1}}, profiled),
			"empty":                nil,
		} {
			if _, _, err := decodeSeed(blob, 3); err == nil {
				t.Errorf("%s: decoded", name)
			}
		}
	}
}

// TestSeedBytes pins what a seed costs in the log: a worker with history in
// three of m = 26 domains is 58 bytes — the count, the flag, and q and u
// each a count plus three (index, bits) entries — where the dense layout
// the seed had before format v1 took 16·m + 2 = 418.
func TestSeedBytes(t *testing.T) {
	st := truth.NewStats(26)
	for _, k := range []int{2, 7, 19} {
		st.Q[k], st.U[k] = 0.9, 3
	}
	blob := mustEncodeSeed(t, st, true)
	if len(blob) != 58 {
		t.Errorf("a seed touching 3 of 26 domains is %d bytes, pinned at 58", len(blob))
	}
	if got := len(mustEncodeSeed(t, truth.NewStats(26), false)); got != 4 {
		t.Errorf("a seed at the prior is %d bytes, pinned at 4", got)
	}
	checkSeedDecode(t, blob, 26)
}

// FuzzSeedDecode drives arbitrary bytes through the KindSeed blob reader,
// which every boot, wake and snapshot pass runs once per seeded worker.
// Seed corpus in testdata/fuzz/FuzzSeedDecode (checked in): sampleSeed's
// sparse blob profiled and not, the same cut at two points, with an
// overlong count, with a byte flipped, with a profiled flag of 2.
func FuzzSeedDecode(f *testing.F) {
	f.Add(mustEncodeSeed(f, sampleSeed(), true))
	f.Add([]byte{3})
	f.Add(mustEncodeSeed(f, truth.NewStats(3), false))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSeedDecode(t, data, 3)
	})
}

// storeUpdateCodec returns the KindStore blob a store over 3 domains logs
// for one profiling merge, and a decoder for such blobs reached the way
// every store reaches it: the blob is logged as the only record of a fresh
// store log, and a store is opened over it.
func storeUpdateCodec(t *testing.T) ([]byte, func([]byte) error) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	st, err := store.Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.MergeProfile("camp/w", "w", sampleSeed()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var blob []byte
	if _, err := wal.Replay(dir, func(rec wal.Record) error { blob = rec.Blob; return nil }); err != nil {
		t.Fatal(err)
	}
	return blob, func(b []byte) error {
		dir := filepath.Join(t.TempDir(), "store")
		log, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(wal.Record{Kind: wal.KindStore, Worker: "w", Blob: b}); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, 3)
		if err == nil {
			st.Close()
		}
		return err
	}
}

// segmentCodec returns the header a log segment opens with, the payload of
// the one record the segment then holds (an answer by "w" to task 0, choice
// 0), and a reader of segment bytes reached the way every boot reaches
// them: the bytes are a segment file, and the log's segment scanner reads it.
func segmentCodec(t *testing.T) ([]byte, []byte, func([]byte) error) {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(wal.Record{Kind: wal.KindAnswer, Worker: "w"}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "0000000000000001.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := crashtest.SegmentFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	first := frames[0].Start // where the first record's frame starts: the header's length
	// The frame: a one-byte length, the CRC, the payload.
	return data[:first], data[first+1+4:], func(b []byte) error {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := crashtest.SegmentFrames(path)
		return err
	}
}

// TestOverlongVarintRejectedByEveryDecoder hands every binary decoder — the
// segment header, the record, the batch, seed and store blobs, the
// publication under both of its magics and the snapshot — a valid input
// whose first varint has been re-encoded one byte too long — same value,
// second spelling — and expects as many rejections: they all read through
// the one cursor, so none can forget the rule.
func TestOverlongVarintRejectedByEveryDecoder(t *testing.T) {
	// overlong rewrites the one-byte varint at b[at] as two bytes.
	overlong := func(b []byte, at int) []byte {
		if b[at] >= 0x80 {
			t.Fatalf("byte %d (%#x) is not a one-byte varint", at, b[at])
		}
		out := append([]byte(nil), b[:at]...)
		out = append(out, b[at]|0x80, 0x00)
		return append(out, b[at+1:]...)
	}
	header, record, scanSegment := segmentCodec(t)
	// A format v2 record frame: length uvarint, CRC32-C, payload.
	frame := func(payload []byte) []byte {
		b := binary.AppendUvarint(nil, uint64(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return append(b, payload...)
	}
	segment := func(payload []byte) []byte { return append(append([]byte(nil), header...), frame(payload)...) }
	const frameHeader = 8 // the header frame's length and CRC
	batch, err := wal.EncodeBatch(nil, &wal.Columns{Workers: []string{"w"}, W: []int{0}, T: []int{3}, C: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Encode(&snapshot.State{Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	storeBlob, decodeStore := storeUpdateCodec(t)
	// A packed publication whose body is short enough for a one-byte length.
	short := []*model.Task{{ID: 1, Text: strings.Repeat("ab", 30), Choices: []string{"a", "b"},
		Domain: model.DomainVector{0, 1, 0, 0}, Truth: model.NoTruth, TrueDomain: model.NoTruth}}
	packed := mustEncodePublication(t, short, 4)
	if !bytes.HasPrefix(packed, []byte(deflateMagic)) {
		t.Fatalf("the short publication packs to %q, want a packed record", packed[:4])
	}
	const snapHeader = 8 + 8 // magic, then the frame's length and CRC
	reframe := func(payload []byte) []byte { return wal.EncodeFrame(append([]byte(nil), snap[:8]...), payload) }
	for name, tc := range map[string]struct {
		valid, damaged []byte
		decode         func([]byte) error
	}{
		"WAL record": {segment(record), segment(overlong(record, 4)), // after kind, ref and worker: the task
			scanSegment},
		"segment header": {header, wal.EncodeFrame(nil, overlong(header[frameHeader:], len("DWAL"))), // the version
			scanSegment},
		"DBB2 batch": {batch, overlong(batch, len("DBB2")), // the dictionary's count
			func(b []byte) error { _, err := wal.DecodeBatch(b); return err }},
		"KindSeed blob": {mustEncodeSeed(t, sampleSeed(), false), overlong(mustEncodeSeed(t, sampleSeed(), false), 0), // m
			func(b []byte) error { _, _, err := decodeSeed(b, 3); return err }},
		"KindStore blob": {storeBlob, overlong(storeBlob, 0), decodeStore}, // m
		"DPC1 publication": {mustEncodeBinaryPublication(t, sampleTasks(), 4), overlong(mustEncodeBinaryPublication(t, sampleTasks(), 4), len(publicationMagic)), // m
			func(b []byte) error { _, err := decodeBinaryPublication(b, 4); return err }},
		"DPC4 publication": {packed, overlong(packed, len(deflateMagic)), // the body's length
			func(b []byte) error { _, err := decodePublication(wal.Record{Blob: b}, 4); return err }},
		"snapshot": {snap, reframe(overlong(snap[snapHeader:], 0)), // seq
			func(b []byte) error { _, err := snapshot.Decode(b); return err }},
	} {
		if err := tc.decode(tc.valid); err != nil {
			t.Errorf("%s: the valid input does not decode: %v", name, err)
		}
		if len(tc.damaged) != len(tc.valid)+1 {
			t.Errorf("%s: damaged input is %d bytes, want the valid %d plus one", name, len(tc.damaged), len(tc.valid))
		}
		if err := tc.decode(tc.damaged); err == nil {
			t.Errorf("%s: accepted an overlong varint", name)
		}
	}
}
