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

// goldenRecords is a fixed sequence covering every record kind in the
// blob forms written today, varint width boundaries (1-byte and 2-byte
// uvarints), empty and non-ASCII strings, and an empty blob.
func goldenRecords() []Record {
	return []Record{
		// A publication as the core's codec writes one too short to pack:
		// DPB1, m = 2, one task (ID 0, text "t", choices "a" and "b", no
		// truth, no true domain) whose domain vector is 1.0 at index 1.
		{Seq: 1, Kind: KindPublish, Blob: []byte{
			'D', 'P', 'B', '1', 0x02, 0x01,
			0x00, 0x01, 't', 0x02, 0x01, 'a', 0x01, 'b', 0x00, 0x00,
			0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
		}},
		{Seq: 2, Kind: KindAnswer, Worker: "w0", Task: 0, Choice: 0},
		{Seq: 3, Kind: KindAnswer, Worker: "worker-with-a-longer-name", Task: 127, Choice: 1},
		{Seq: 128, Kind: KindAnswer, Worker: "", Task: 128, Choice: 2},
		{Seq: 300, Kind: KindAnswer, Worker: "wörker-ünïcode", Task: 16384, Choice: 0},
		{Seq: 301, Kind: KindPublish, Blob: nil},
		// A batched-submit group: the columnar blob — a repeated worker, a
		// non-ASCII one, one- and two-byte varints in every column.
		{Seq: 302, Kind: KindBatch, Blob: mustEncodeBatch(columnsOf([]Record{
			{Worker: "w0", Task: 1, Choice: 1},
			{Worker: "wörker", Task: 128, Choice: 0},
			{Worker: "w0", Task: 16384, Choice: 200},
		}))},
		// Worker seeds in the core's codec (m = 2, the profiled flag, then q
		// sparse against 0.7 and u sparse against +0): a profiled worker at
		// 0.8 with weight 1 in domain 0, and a worker at the prior. The WAL
		// layer treats both as opaque bytes keyed to the worker.
		{Seq: 303, Kind: KindSeed, Worker: "w-seeded", Blob: []byte{
			0x02, 0x01,
			0x01, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xe9, 0x3f,
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
		}},
		{Seq: 304, Kind: KindSeed, Worker: "w-default-seed", Blob: []byte{0x02, 0x00, 0x00, 0x00}},
		// A worker-store update in the store's codec: m, op 3 (a profiling
		// merge), its profile ID, then q and u in the seed's layout: domain
		// 0 at 0.9 and at weight 4.
		{Seq: 305, Kind: KindStore, Worker: "w-profiled", Blob: []byte{
			0x02, 0x03,
			0x06, 'c', 'a', 'm', 'p', '/', 'w',
			0x01, 0x00, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f,
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,
		}},
	}
}

// TestGoldenFormat pins the on-disk encoding: a format v1 segment holding
// a fixed record sequence — the header, then the records' frames — must
// match the checked-in golden file byte for byte, and must read back as
// those records. The WAL is a durability contract, so an intentional format
// change is a new format version: it updates this file (go test
// ./internal/wal -run Golden -update) and states in docs/persistence.md
// what becomes of segments of the old version.
func TestGoldenFormat(t *testing.T) {
	got := append([]byte(nil), segmentHeader...)
	for _, rec := range goldenRecords() {
		got = rec.appendFrame(got)
	}
	path := filepath.Join("testdata", "format.golden")
	if *updateGolden {
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
	var decoded []Record
	if err := ScanSegment(path, func(rec Record, _, _ int64) error {
		decoded = append(decoded, rec)
		return nil
	}); err != nil {
		t.Fatalf("reading the golden segment: %v", err)
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
