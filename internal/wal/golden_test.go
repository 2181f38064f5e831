package wal

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenRecords is a fixed sequence covering every record kind, varint
// width boundaries (1-byte and 2-byte uvarints), empty and non-ASCII
// strings, and an empty blob.
func goldenRecords() []Record {
	return []Record{
		{Seq: 1, Kind: KindPublish, Blob: []byte(`[{"id":0,"text":"t","choices":["a","b"]}]`)},
		{Seq: 2, Kind: KindAnswer, Worker: "w0", Task: 0, Choice: 0},
		{Seq: 3, Kind: KindAnswer, Worker: "worker-with-a-longer-name", Task: 127, Choice: 1},
		{Seq: 128, Kind: KindAnswer, Worker: "", Task: 128, Choice: 2},
		{Seq: 300, Kind: KindAnswer, Worker: "wörker-ünïcode", Task: 16384, Choice: 0},
		{Seq: 301, Kind: KindPublish, Blob: nil},
		// A batched-submit group as logs older than DBB2 hold it: the blob
		// is magic + framed position-tagged answers, written here by the
		// test-only encoder. These bytes must decode forever.
		{Seq: 302, Kind: KindBatch, Blob: encodeLegacyBatch(nil, []Record{
			{Worker: "w0", Task: 1, Choice: 1},
			{Worker: "w1", Task: 2, Choice: 0},
		})},
		// A worker-seed record: the blob is the core's seed codec (uvarint
		// domain count, Q and U as raw float64 bits, profiled flag) but the
		// WAL layer treats it as opaque bytes keyed to the worker.
		{Seq: 303, Kind: KindSeed, Worker: "w-seeded", Blob: []byte{
			0x02,
			0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xe9, 0x3f,
			0x33, 0x33, 0x33, 0x33, 0x33, 0x33, 0xeb, 0x3f,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
			0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
			0x01,
		}},
		{Seq: 304, Kind: KindSeed, Worker: "w-empty-seed", Blob: []byte{0x00, 0x00}},
		// A batched-submit group as it is written today: the columnar blob —
		// a repeated worker, a non-ASCII one, one- and two-byte varints in
		// every column. Appended after the records above, so the golden
		// file's older bytes are a strict prefix of today's.
		{Seq: 305, Kind: KindBatch, Blob: mustEncodeBatch(columnsOf([]Record{
			{Worker: "w0", Task: 1, Choice: 1},
			{Worker: "wörker", Task: 128, Choice: 0},
			{Worker: "w0", Task: 16384, Choice: 200},
		}))},
		// A worker-store update: the blob is the store's codec (m, op 3 =
		// a profiling merge, its profile ID, then q and u as sparse
		// vectors: domain 0 at 0.9 and at weight 4) but the WAL layer
		// treats it as opaque bytes keyed to the worker. Appended last, so
		// the older golden bytes stay a strict prefix.
		{Seq: 306, Kind: KindStore, Worker: "w-profiled", Blob: []byte{
			0x02, 0x03,
			0x06, 'c', 'a', 'm', 'p', '/', 'w',
			0x01, 0x00, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f,
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,
		}},
	}
}

// TestGoldenFormat pins the on-disk encoding: the framed bytes of a fixed
// record sequence must match the checked-in golden file byte for byte.
// The WAL is a durability contract — logs written by one build must replay
// on the next — so any intentional format change must both update this
// file (go test ./internal/wal -run Golden -update) and add migration
// handling for old logs.
func TestGoldenFormat(t *testing.T) {
	var got []byte
	for _, rec := range goldenRecords() {
		got = rec.appendFrame(got)
	}
	path := filepath.Join("testdata", "format.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted from golden file:\n got %s\nwant %s",
			hex.EncodeToString(got), hex.EncodeToString(want))
	}
	// And the golden bytes must decode back to the original records: replay
	// of old logs is the other half of the contract.
	var decoded []Record
	intact, err := DecodeFrames(want, func(payload []byte) error {
		rec, err := Decode(payload)
		decoded = append(decoded, rec)
		return err
	})
	if err != nil || intact != len(want) {
		t.Fatalf("walking the golden file: %d of %d bytes intact, %v", intact, len(want), err)
	}
	wantRecs := goldenRecords()
	if len(decoded) != len(wantRecs) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(wantRecs))
	}
	for i := range decoded {
		g, w := decoded[i], wantRecs[i]
		if g.Seq != w.Seq || g.Kind != w.Kind || g.Worker != w.Worker ||
			g.Task != w.Task || g.Choice != w.Choice || !bytes.Equal(g.Blob, w.Blob) {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestEncodeDecodeRoundtrip is the property the fuzz target extends: any
// record that can be encoded decodes back to itself.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	for i, rec := range goldenRecords() {
		got, err := Decode(rec.Encode())
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.Seq != rec.Seq || got.Kind != rec.Kind || got.Worker != rec.Worker ||
			got.Task != rec.Task || got.Choice != rec.Choice || !bytes.Equal(got.Blob, rec.Blob) {
			t.Errorf("record %d roundtrip = %+v, want %+v", i, got, rec)
		}
	}
}
