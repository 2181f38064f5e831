package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleBatch(n int) []Record {
	items := make([]Record, n)
	for i := range items {
		items[i] = Record{Worker: fmt.Sprintf("w%d", i%7), Task: i, Choice: i % 3}
	}
	return items
}

// columnsOf is the items as the serving core would have accumulated them.
func columnsOf(items []Record) *Columns {
	var b ColumnBuilder
	for _, it := range items {
		b.Add(it.Worker, it.Task, it.Choice)
	}
	return &b.Columns
}

// itemsOf is the inverse of columnsOf, for columns DecodeBatch accepted.
func itemsOf(c *Columns) []Record {
	items := make([]Record, c.Len())
	for i, wi := range c.W {
		items[i] = Record{Worker: c.Workers[wi], Task: c.T[i], Choice: c.C[i]}
	}
	return items
}

func mustEncodeBatch(c *Columns) []byte {
	blob, err := EncodeBatch(nil, c)
	if err != nil {
		panic(err)
	}
	return blob
}

// rawBatch lays out a DBB2 blob from whatever columns it is given —
// canonical or not: AppendColumns checks nothing but the signs.
func rawBatch(workers []string, w, t, c []int) []byte {
	return mustEncodeBatch(&Columns{Workers: workers, W: w, T: t, C: c})
}

func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 64, 300} {
		items := sampleBatch(n)
		want := columnsOf(items)
		body := mustEncodeBatch(want)
		got, err := DecodeBatch(body)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("n=%d: decoded %+v, want %+v", n, got, want)
		}
		// Canonical: re-encoding the decoded columns reproduces the body.
		if !bytes.Equal(mustEncodeBatch(&got), body) {
			t.Fatalf("n=%d: encode/decode not canonical", n)
		}
	}
	if _, err := EncodeBatch(nil, &Columns{Workers: []string{"w"}, W: []int{0}, T: []int{-1}, C: []int{0}}); err == nil {
		t.Fatal("a negative task ID was encoded")
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	ab := []string{"a", "b"}
	one := rawBatch([]string{"a"}, []int{0}, []int{5}, []int{1})
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte("XXX1"), one[4:]...),
		// The per-answer-framed magic of format v0 logs has no reader.
		"retired magic": append([]byte("DBB1"), one[4:]...),

		// Everything below parses as columns and is refused for having a
		// second spelling or none.
		"DBB2 magic only":         []byte("DBB2"),
		"DBB2 n = 0":              rawBatch(nil, nil, nil, nil),
		"DBB2 n = 0, one worker":  rawBatch([]string{"a"}, nil, nil, nil),
		"DBB2 short task column":  rawBatch(ab, []int{0, 1}, []int{5}, []int{1, 1}),
		"DBB2 long choice column": rawBatch(ab, []int{0, 1}, []int{5, 6}, []int{1, 1, 1}),
		"DBB2 index out of range": rawBatch(ab, []int{0, 1, 2}, []int{5, 6, 7}, []int{1, 1, 1}),
		"DBB2 duplicate entry":    rawBatch([]string{"a", "a"}, []int{0, 1}, []int{5, 6}, []int{1, 1}),
		"DBB2 unused entry":       rawBatch(ab, []int{0, 0}, []int{5, 6}, []int{1, 1}),
		"DBB2 unused first entry": rawBatch(ab, []int{1, 1}, []int{5, 6}, []int{1, 1}),
		"DBB2 not first-use order": rawBatch([]string{"a", "b", "c"},
			[]int{0, 2, 1}, []int{5, 6, 7}, []int{1, 1, 1}),
		"DBB2 overlong varint": append(append([]byte(nil), one[:len(one)-1]...), 0x81, 0x00),
		"DBB2 trailing byte":   append(append([]byte(nil), one...), 0x00),
		"DBB2 count of 2^63":   append([]byte("DBB2"), binary.AppendUvarint(nil, 1<<63)...),
	}
	for name, body := range cases {
		if cols, err := DecodeBatch(body); err == nil {
			t.Errorf("%s: decode accepted", name)
		} else if !reflect.DeepEqual(cols, Columns{}) {
			t.Errorf("%s: rejected, yet returned %+v", name, cols)
		}
	}
	if _, err := DecodeBatch(one); err != nil {
		t.Fatalf("the blob the damaged cases are cut from does not decode: %v", err)
	}
}

// costBatch is one ingest-batch call as docs-perf drives it: 128 answers
// by one worker over distinct task IDs below 600.
func costBatch() []Record {
	items := make([]Record, 128)
	for i := range items {
		items[i] = Record{Worker: "w005", Task: (11 + 37*i) % 600, Choice: i % 2}
	}
	return items
}

// TestBatchBytesPerAnswer pins what a batched answer costs on disk and on
// replay — the numbers docs/architecture.md § "What a batched answer costs"
// quotes. The blob is 499 bytes for 128 answers (3.90 B each: one index
// byte, one or two task bytes, one choice byte, and 16 bytes of magic,
// dictionary and counts shared by all of them); and decoding it allocates
// for the dictionary and the three columns, not per answer.
func TestBatchBytesPerAnswer(t *testing.T) {
	items := costBatch()
	blob := mustEncodeBatch(columnsOf(items))
	t.Logf("128 answers: %d B as DBB2 (%.2f B/answer)", len(blob), float64(len(blob))/float64(len(items)))
	if len(blob) != 499 {
		t.Errorf("DBB2 blob is %d bytes, pinned at 499", len(blob))
	}

	allocs := func(blob []byte) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := DecodeBatch(blob); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The dictionary slice, its one string, and the three columns.
	if got := allocs(blob); got != 5 {
		t.Errorf("decoding 128 answers by one worker allocates %.0f times, pinned at 5", got)
	}
	if small := allocs(mustEncodeBatch(columnsOf(items[:8]))); small != allocs(blob) {
		t.Errorf("decoding 8 answers allocates %.0f times, 128 answers %.0f: not a constant", small, allocs(blob))
	}
}

// TestAnswerRecordBytes pins what a single answer costs on disk — the
// numbers docs/architecture.md § "What a batched answer costs" quotes
// beside the batch's. 4,000 answers by 60 workers (w000–w059) over 600
// tasks, shaped like the lifecycle workload's, make one segment of 39,458
// bytes: its 14-byte header, each worker's first answer (which spells the
// ID out: five bytes more) and then 9 bytes an answer to a task below 128
// and 10 below 16,384 — a one-byte length, the CRC, the kind, a one-byte
// ref, the task's uvarint and the choice.
func TestAnswerRecordBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, err := l.Append(answerRec(fmt.Sprintf("w%03d", (i*7)%60), (11+37*i)%600, i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%016x%s", 1, segmentSuffix))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4,000 answers: %d B (%.2f B/answer)", info.Size(), float64(info.Size())/4000)
	if info.Size() != 39458 {
		t.Errorf("segment is %d bytes, pinned at 39458", info.Size())
	}
	seen := map[string]bool{}
	if err := ScanSegment(path, func(rec Record, start, end int64) error {
		want := int64(9)
		if rec.Task >= 128 {
			want = 10
		}
		if seen[rec.Worker] && end-start != want {
			t.Errorf("answer %d (task %d) by a known worker is %d bytes, want %d", rec.Seq, rec.Task, end-start, want)
		}
		seen[rec.Worker] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// randomBatch draws a batch whose shape the seed decides: 1–256 items by
// 1–256 distinct workers whose IDs run from one byte to several hundred,
// ASCII and not, over task IDs of every varint width an int can take.
func randomBatch(r *rand.Rand) []Record {
	workers := make([]string, 1+r.Intn(256))
	for i := range workers {
		id := fmt.Sprintf("%d", i)
		switch r.Intn(4) {
		case 0:
			id = "wörker-ünïcode-" + id
		case 1:
			id = "工人" + id
		case 2:
			id += strings.Repeat("-long", r.Intn(120))
		}
		workers[i] = id
	}
	items := make([]Record, 1+r.Intn(256))
	for i := range items {
		items[i] = Record{
			Worker: workers[r.Intn(len(workers))],
			Task:   int(r.Uint64() >> (1 + r.Intn(63))),
			Choice: r.Intn(1 << r.Intn(9)),
		}
	}
	return items
}

// TestPropertyBatchRoundTrip: over seeded random batches, decode∘encode is
// the identity on columns and encode∘decode the identity on bytes.
func TestPropertyBatchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20160412))
	for round := 0; round < 300; round++ {
		items := randomBatch(r)
		want := columnsOf(items)
		blob := mustEncodeBatch(want)
		got, err := DecodeBatch(blob)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("round %d: decode∘encode moved the columns", round)
		}
		if !bytes.Equal(mustEncodeBatch(&got), blob) {
			t.Fatalf("round %d: encode∘decode moved the bytes", round)
		}
		if !reflect.DeepEqual(itemsOf(&got), items) {
			t.Fatalf("round %d: the decoded items are not the encoded ones", round)
		}
	}
}

// TestBatchDecodeDamage sweeps every truncation and every single-bit flip
// of a DBB2 blob. A truncation is always rejected — the counts sit ahead
// of what they count, so a cut blob cannot pass for a shorter batch. A
// flipped bit is rejected or, where it lands in a value (a task ID, a
// choice, a byte of a worker's name), decodes to a different batch whose
// own canonical encoding is the flipped blob: there is no inner checksum
// to catch that, by design — the enclosing record's CRC covers these bytes
// and replay never hands DecodeBatch a blob it did not hold.
func TestBatchDecodeDamage(t *testing.T) {
	items := append(sampleBatch(40), Record{Worker: "wörker", Task: 1 << 20, Choice: 300})
	blob := mustEncodeBatch(columnsOf(items))
	want, err := DecodeBatch(blob)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if cols, err := DecodeBatch(blob[:cut]); err == nil {
			t.Fatalf("the blob cut to %d of %d bytes decodes to %d answers", cut, len(blob), cols.Len())
		}
	}
	rejected, moved := 0, 0
	for bit := 0; bit < 8*len(blob); bit++ {
		damaged := append([]byte(nil), blob...)
		damaged[bit/8] ^= 1 << (bit % 8)
		got, err := DecodeBatch(damaged)
		if err != nil {
			rejected++
			continue
		}
		moved++
		if reflect.DeepEqual(got, want) {
			t.Fatalf("bit %d flipped and the batch decodes unchanged", bit)
		}
		if !bytes.Equal(mustEncodeBatch(&got), damaged) {
			t.Fatalf("bit %d flipped: accepted a blob that is not its own canonical encoding", bit)
		}
	}
	t.Logf("%d single-bit flips: %d rejected, %d decode to a different canonical batch", 8*len(blob), rejected, moved)
}

// FuzzBatchDecode drives arbitrary bytes through the batch blob decoder —
// the bytes a KindBatch WAL record hands to replay after a crash. It must
// never panic; a rejection returns no columns; an accepted blob re-encodes
// to the exact input bytes, so one batch has one encoding; and it decodes
// to no more elements than it has bytes. Seed corpus lives in
// testdata/fuzz/FuzzBatchDecode (checked in); its DBB1 files are blobs of
// the retired per-answer layout, refused at the magic.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DBB1"))
	f.Add([]byte("DBB0"))
	f.Add(mustEncodeBatch(columnsOf(sampleBatch(64))))
	f.Add(mustEncodeBatch(columnsOf(costBatch())))
	f.Add(rawBatch([]string{"a", "b", "c"}, []int{0, 2, 1}, []int{5, 6, 7}, []int{1, 1, 1}))
	torn := mustEncodeBatch(columnsOf(sampleBatch(2)))
	f.Add(torn[:len(torn)-3])
	f.Add([]byte("DBB2"))
	f.Add(mustEncodeBatch(columnsOf(sampleBatch(1))))
	f.Add(mustEncodeBatch(columnsOf(sampleBatch(9))))
	f.Add(mustEncodeBatch(columnsOf([]Record{{Worker: "wörker", Task: 1 << 20, Choice: 3}})))
	f.Fuzz(func(t *testing.T, body []byte) {
		cols, err := DecodeBatch(body)
		if err != nil {
			if !reflect.DeepEqual(cols, Columns{}) {
				t.Fatalf("rejected, yet returned %+v", cols)
			}
			return // rejected input: fine, as long as we did not panic
		}
		if n := len(cols.Workers) + len(cols.W) + len(cols.T) + len(cols.C); n > len(body) {
			t.Fatalf("decoded %d elements from %d bytes", n, len(body))
		}
		if got := mustEncodeBatch(&cols); !bytes.Equal(got, body) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", body, got)
		}
	})
}
