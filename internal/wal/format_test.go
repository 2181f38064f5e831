package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// randomRecords draws n records of every kind. Workers come from a pool
// whose size the seed decides (1–300, so refs take one byte or two), with
// IDs from empty to hundreds of bytes, ASCII and not; task IDs and choices
// take every varint width up to four bytes; blobs are random bytes, which
// the log carries without reading.
func randomRecords(r *rand.Rand, n int) []Record {
	workers := make([]string, 1+r.Intn(300))
	for i := range workers {
		id := fmt.Sprintf("w%d", i)
		switch r.Intn(5) {
		case 0:
			id = "wörker-" + id
		case 1:
			id += strings.Repeat("-long", r.Intn(60))
		case 2:
			id = id[:r.Intn(len(id))]
		}
		workers[i] = id
	}
	blob := func() []byte {
		b := make([]byte, r.Intn(300))
		r.Read(b)
		return b
	}
	recs := make([]Record, n)
	for i := range recs {
		w := workers[r.Intn(len(workers))]
		switch k := r.Intn(20); {
		case k < 14:
			recs[i] = Record{Kind: KindAnswer, Worker: w, Task: r.Intn(1 << (7 * (1 + r.Intn(4)))), Choice: r.Intn(300)}
		case k < 16:
			recs[i] = Record{Kind: KindSeed, Worker: w, Blob: blob()}
		case k < 18:
			recs[i] = Record{Kind: KindStore, Worker: w, Blob: blob()}
		case k < 19:
			recs[i] = Record{Kind: KindPublish, Blob: blob()}
		default:
			recs[i] = Record{Kind: KindBatch, Blob: blob()}
		}
	}
	return recs
}

// TestFormatV2ReplaysWhatWasWritten: seeded random record sequences,
// written through a Log at the smallest segment size so each rotates
// several times, replay to the records written, each numbered by its
// position — the sequence number no frame carries.
func TestFormatV2ReplaysWhatWasWritten(t *testing.T) {
	r := rand.New(rand.NewSource(20160412))
	for round := 0; round < 20; round++ {
		recs := randomRecords(r, 100+r.Intn(400))
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: minSegmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, recs)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if segs, err := segments(dir); err != nil || len(segs) < 3 {
			t.Fatalf("round %d: %d segments (%v), want several rotations", round, len(segs), err)
		}
		got, st := replayAll(t, dir)
		if len(got) != len(recs) || st.TornTail {
			t.Fatalf("round %d: replayed %d records (torn %v), want %d", round, len(got), st.TornTail, len(recs))
		}
		for i := range recs {
			want := recs[i]
			want.Seq = uint64(i + 1)
			if !sameRecord(got[i], want) {
				t.Fatalf("round %d, record %d: replayed %+v, want %+v", round, i, got[i], want)
			}
		}
	}
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

// TestFormatV2Refusals: each row is a format v2 segment broken in one
// way. Bytes that are all present but wrong are ErrCorrupt for Replay and
// Open, which change nothing on disk; a frame or length cut by the end of
// the file is a torn tail when the segment is the last — replayed up to
// the cut — and ErrCorrupt when another segment follows it.
func TestFormatV2Refusals(t *testing.T) {
	frame := func(length []byte, payload ...byte) []byte {
		b := binary.LittleEndian.AppendUint32(length, crc32.Checksum(payload, castagnoli))
		return append(b, payload...)
	}
	record := func(payload ...byte) []byte {
		return frame(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
	}
	answer := record(byte(KindAnswer), 0, 1, 'w', 3, 1) // introduces "w" as ref 0
	seg := func(header []byte, frames ...[]byte) []byte {
		return bytes.Join(append([][]byte{header}, frames...), nil)
	}
	header := appendHeader(nil, 1)
	for _, row := range []struct {
		name string
		data []byte
		torn bool
	}{
		{"a ref beyond the dictionary", seg(header, answer, record(byte(KindAnswer), 2, 3, 1)), false},
		{"a worker introduced twice", seg(header, answer, record(byte(KindAnswer), 1, 1, 'w', 3, 1)), false},
		{"an overlong length uvarint", seg(header, answer, frame([]byte{0x84, 0x00}, byte(KindAnswer), 0, 3, 1)), false},
		{"a length over MaxPayload", seg(header, answer, frame(binary.AppendUvarint(nil, MaxPayload+1), byte(KindAnswer), 0, 3, 1)), false},
		{"four length bytes that all continue", seg(header, answer, []byte{0x80, 0x80, 0x80, 0x80}), false},
		{"an answer after the worker field ends", seg(header, answer, record(byte(KindAnswer), 0)), false},
		{"a v2 header with no firstSeq", seg(EncodeFrame(nil, []byte{'D', 'W', 'A', 'L', 2}), answer), false},
		{"a v2 header with the wrong firstSeq", seg(appendHeader(nil, 2), answer), false},
		{"a v2 header with the wrong firstSeq and no record", appendHeader(nil, 2), false},
		{"a v2 header with firstSeq 0", seg(EncodeFrame(nil, []byte{'D', 'W', 'A', 'L', 2, 0}), answer), false},
		{"a length uvarint cut by the end", seg(header, answer, []byte{0x80}), true},
		{"a three-byte length uvarint cut by the end", seg(header, answer, []byte{0x80, 0x80, 0x80}), true},
		{"a frame cut inside its CRC", seg(header, answer, answer[:3]), true},
		{"a frame cut inside its payload", seg(header, answer, answer[:len(answer)-1]), true},
	} {
		first := filepath.Join(t.TempDir(), fmt.Sprintf("%016x%s", 1, segmentSuffix))
		if err := os.WriteFile(first, row.data, 0o644); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(first)
		st, err := Replay(dir, func(Record) error { return nil })
		switch {
		case row.torn && (err != nil || st.Records != 1 || !st.TornTail):
			t.Errorf("%s: replayed %d records (torn %v), %v; want the one before the cut and a torn tail", row.name, st.Records, st.TornTail, err)
		case !row.torn && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: replay err = %v, want ErrCorrupt", row.name, err)
		}
		if !row.torn {
			if l, err := Open(dir, Options{}); err == nil {
				l.Close()
				t.Errorf("%s: Open accepted the segment", row.name)
			}
			if data, err := os.ReadFile(first); err != nil || !bytes.Equal(data, row.data) {
				t.Errorf("%s: the refused segment changed (%v)", row.name, err)
			}
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%016x%s", 2, segmentSuffix)), segmentV2(2, answerRec("w", 1, 0)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(dir, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s, with a segment after it: replay err = %v, want ErrCorrupt", row.name, err)
		}
	}
}

// TestSegmentBytesIndependentOfBatching: a segment's bytes are a function
// of the record sequence. The same 5,000 records written one Append at a
// time, in seeded random bursts of Reserve followed by their Waits, and
// across a Close and Open every 777 records leave byte-identical
// directories, across many rotations at the smallest segment size —
// rotation and each record's dictionary are decided at Reserve, not where
// a group commit happened to end.
func TestSegmentBytesIndependentOfBatching(t *testing.T) {
	recs := make([]Record, 5000)
	for i := range recs {
		recs[i] = answerRec(fmt.Sprintf("w%03d", (i*7)%60), (11+37*i)%600, i%2)
		if i%500 == 0 {
			recs[i] = Record{Kind: KindSeed, Worker: fmt.Sprintf("s%d", i), Blob: []byte{2, 0, 0, 0}}
		}
	}
	write := func(feed func(t *testing.T, dir string)) map[string]string {
		dir := t.TempDir()
		feed(t, dir)
		files := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	open := func(t *testing.T, dir string) *Log {
		l, err := Open(dir, Options{SegmentBytes: minSegmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	closeLog := func(t *testing.T, l *Log) {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	one := write(func(t *testing.T, dir string) {
		l := open(t, dir)
		for _, rec := range recs {
			if _, err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		closeLog(t, l)
	})
	r := rand.New(rand.NewSource(7))
	bursts := write(func(t *testing.T, dir string) {
		l := open(t, dir)
		for i := 0; i < len(recs); {
			var queued []Pending
			for n := 1 + r.Intn(64); n > 0 && i < len(recs); n, i = n-1, i+1 {
				p, err := l.Reserve(recs[i])
				if err != nil {
					t.Fatal(err)
				}
				queued = append(queued, p)
			}
			for _, p := range queued {
				if err := p.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		closeLog(t, l)
	})
	reopened := write(func(t *testing.T, dir string) {
		for i := 0; i < len(recs); i += 777 {
			l := open(t, dir)
			for _, rec := range recs[i:min(i+777, len(recs))] {
				if _, err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			closeLog(t, l)
		}
	})

	if len(one) < 10 {
		t.Fatalf("%d segments; want many rotations", len(one))
	}
	for name, files := range map[string]map[string]string{"bursts": bursts, "reopened": reopened} {
		if len(files) != len(one) {
			t.Errorf("%s: %d segments, one at a time %d", name, len(files), len(one))
		}
		for f, data := range one {
			if files[f] != data {
				t.Errorf("%s: segment %s differs from one Append at a time", name, f)
			}
		}
	}
}
