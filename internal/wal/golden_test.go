package wal

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenRecords is a fixed sequence covering every record kind, with
// blobs the log carries unread, varint width boundaries (1-byte and 2-byte
// uvarints), empty and non-ASCII strings and an empty blob, numbered from
// 1, then what the worker dictionary must get right: a worker a seed
// introduces and an answer then names, a repeated worker, and enough
// workers (w000–w129) that refs take two bytes.
func goldenRecords() []Record {
	recs := []Record{
		// A publication blob, which the log carries without reading: m = 2,
		// one task (ID 0, text "t", choices "a" and "b", no truth, no true
		// domain) whose domain vector is 1.0 at index 1.
		{Kind: KindPublish, Blob: []byte{
			'D', 'P', 'B', '1', 0x02, 0x01,
			0x00, 0x01, 't', 0x02, 0x01, 'a', 0x01, 'b', 0x00, 0x00,
			0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
		}},
		{Kind: KindAnswer, Worker: "w0", Task: 0, Choice: 0},
		{Kind: KindAnswer, Worker: "worker-with-a-longer-name", Task: 127, Choice: 1},
		{Kind: KindAnswer, Worker: "", Task: 128, Choice: 2},
		{Kind: KindAnswer, Worker: "wörker-ünïcode", Task: 16384, Choice: 0},
		{Kind: KindPublish, Blob: nil},
		// A batched-submit group: the columnar blob — a repeated worker, a
		// non-ASCII one, one- and two-byte varints in every column.
		{Kind: KindBatch, Blob: mustEncodeBatch(columnsOf([]Record{
			{Worker: "w0", Task: 1, Choice: 1},
			{Worker: "wörker", Task: 128, Choice: 0},
			{Worker: "w0", Task: 16384, Choice: 200},
		}))},
		// Worker seeds in the core's codec (m = 2, the profiled flag, then q
		// sparse against 0.7 and u sparse against +0): a profiled worker at
		// 0.8 with weight 1 in domain 0, and a worker at the prior. The WAL
		// layer treats both as opaque bytes keyed to the worker.
		{Kind: KindSeed, Worker: "w-seeded", Blob: []byte{
			0x02, 0x01,
			0x01, 0x00, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xe9, 0x3f,
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
		}},
		{Kind: KindSeed, Worker: "w-default-seed", Blob: []byte{0x02, 0x00, 0x00, 0x00}},
		// A worker-store update in the store's codec: m, op 3 (a profiling
		// merge), its profile ID, then q and u in the seed's layout: domain
		// 0 at 0.9 and at weight 4.
		{Kind: KindStore, Worker: "w-profiled", Blob: []byte{
			0x02, 0x03,
			0x06, 'c', 'a', 'm', 'p', '/', 'w',
			0x01, 0x00, 0xcd, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xec, 0x3f,
			0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,
		}},
		{Kind: KindAnswer, Worker: "w-seeded", Task: 5, Choice: 1},
		{Kind: KindAnswer, Worker: "w0", Task: 2, Choice: 1},
	}
	for i := 0; i < 130; i++ {
		recs = append(recs, Record{Kind: KindAnswer, Worker: fmt.Sprintf("w%03d", i), Task: 3 * i, Choice: i % 2})
	}
	recs = append(recs,
		Record{Kind: KindAnswer, Worker: "w129", Task: 200, Choice: 0},
		Record{Kind: KindSeed, Worker: "w128", Blob: []byte{0x02, 0x00, 0x00, 0x00}},
		Record{Kind: KindAnswer, Worker: "w000", Task: 16384, Choice: 1},
	)
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	return recs
}

// TestGoldenFormat pins the on-disk encoding. A segment of a fixed record
// sequence, written through a Log, must match testdata/format_v3.golden
// byte for byte and read back as those records. The WAL is a durability
// contract, so an intentional format change is a new format version: it
// bumps formatVersion, adds the retired version's row to lastReader and to
// docs/persistence.md's table, and writes the file under the new version's
// name (go test ./internal/wal -run Golden -update).
func TestGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, goldenRecords())
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%016x%s", 1, segmentSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "format_v3.golden")
	if *updateGolden {
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, golden) {
		t.Fatalf("encoding drifted from %s:\n got %s\nwant %s", path,
			hex.EncodeToString(seg), hex.EncodeToString(golden))
	}
	var decoded []Record
	if err := ScanSegment(path, func(rec Record, _, _ int64) error {
		decoded = append(decoded, rec)
		return nil
	}); err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	want := goldenRecords()
	if len(decoded) != len(want) {
		t.Fatalf("%s: decoded %d records, want %d", path, len(decoded), len(want))
	}
	for i := range decoded {
		if !sameRecord(decoded[i], want[i]) {
			t.Errorf("%s: record %d = %+v, want %+v", path, i, decoded[i], want[i])
		}
	}
}

// sameRecord reports whether two records are equal, a nil and an empty
// blob alike.
func sameRecord(a, b Record) bool {
	return a.Seq == b.Seq && a.Kind == b.Kind && a.Worker == b.Worker &&
		a.Task == b.Task && a.Choice == b.Choice && bytes.Equal(a.Blob, b.Blob)
}

// TestEncodeDecodeRoundtrip is the property the fuzz target extends: any
// record that can be encoded decodes back to itself, in sequence, each
// record against the dictionary the ones before it left.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	var enc, dec dictionary
	for i, rec := range goldenRecords() {
		payload, intro := rec.appendPayload(nil, &enc)
		if intro {
			enc.add(rec.Worker)
		}
		got, err := decode(payload, rec.Seq, &dec)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !sameRecord(got, rec) {
			t.Errorf("record %d roundtrip = %+v, want %+v", i, got, rec)
		}
	}
	if !reflect.DeepEqual(enc, dec) {
		t.Error("the decoder's dictionary is not the encoder's")
	}
}
