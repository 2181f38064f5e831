package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func answerRec(w string, task, choice int) Record {
	return Record{Kind: KindAnswer, Worker: w, Task: task, Choice: choice}
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for i, r := range recs {
		seq, err := l.Append(r)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want && l.opts.SegmentBytes == 0 {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, want)
		}
	}
}

func replayAll(t *testing.T, dir string) ([]Record, ReplayStats) {
	t.Helper()
	var got []Record
	st, err := Replay(dir, func(rec Record) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func testRecords(n int) []Record {
	recs := make([]Record, 0, n+1)
	recs = append(recs, Record{Kind: KindPublish, Blob: []byte(`[{"id":1}]`)})
	for i := 0; len(recs) < n; i++ {
		recs = append(recs, answerRec(fmt.Sprintf("w%d", i%7), i%31, i%3))
	}
	return recs
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(50)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if st.TornTail {
		t.Error("clean log reported a torn tail")
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i, g := range got {
		want := recs[i]
		want.Seq = uint64(i + 1)
		if g.Seq != want.Seq || g.Kind != want.Kind || g.Worker != want.Worker ||
			g.Task != want.Task || g.Choice != want.Choice || !bytes.Equal(g.Blob, want.Blob) {
			t.Fatalf("record %d = %+v, want %+v", i, g, want)
		}
	}
}

func TestReplayMissingDirIsEmpty(t *testing.T) {
	got, st := replayAll(t, filepath.Join(t.TempDir(), "nope"))
	if len(got) != 0 || st.Records != 0 || st.TornTail {
		t.Fatalf("missing dir: got %d records, stats %+v", len(got), st)
	}
}

func TestTornTailToleratedAndTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(10)
	appendAll(t, l, recs)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	// Tear the final record: chop a few bytes off the file.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if !st.TornTail {
		t.Error("torn tail not reported")
	}
	if len(got) != len(recs)-1 {
		t.Fatalf("replayed %d records after tear, want %d", len(got), len(recs)-1)
	}
	// Reopen: the torn bytes must be truncated away and appends continue
	// with the next sequence number.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lastSeq := l2.LastSeq(); lastSeq != uint64(len(recs)-1) {
		t.Fatalf("reopened LastSeq = %d, want %d", lastSeq, len(recs)-1)
	}
	seq, err := l2.Append(answerRec("late", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(recs)) {
		t.Fatalf("post-reopen seq = %d, want %d", seq, len(recs))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	got, st = replayAll(t, dir)
	if st.TornTail || len(got) != len(recs) {
		t.Fatalf("after reopen+append: %d records (torn=%v), want %d clean", len(got), st.TornTail, len(recs))
	}
}

func TestCorruptionMidLogFails(t *testing.T) {
	dir := t.TempDir()
	// Two segments; rot the FIRST one — that is corruption, not a torn tail.
	l, err := Open(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(200))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("want >= 2 segments, got %d", len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestRotInFinalSegmentFailsLoudly: a CRC flip on a frame whose bytes are
// all present is rot, not a torn append — even in the final segment it
// must fail replay and refuse to reopen, never silently truncate the
// acknowledged records behind it.
func TestRotInFinalSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(10))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var end int64 // where the first record's frame, and so its payload, ends
	if err := ScanSegment(path, func(_ Record, _, e int64) error {
		if end == 0 {
			end = e
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data[end-1] ^= 0x01 // flip a payload bit of the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of rotted final segment: err = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open truncated a rotted segment instead of failing")
	}
}

// TestReplayRejectsMissingSegment: segments are never deleted, so the log
// is gapless from seq 1 and a hole means acknowledged records are gone.
// Replay must say so instead of delivering what is left.
func TestReplayRejectsMissingSegment(t *testing.T) {
	build := func(t *testing.T) (string, []segmentInfo) {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: minSegmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, testRecords(500))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := segments(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) < 4 {
			t.Fatalf("want >= 4 segments after 500 records, got %d", len(segs))
		}
		return dir, segs
	}

	dir, _ := build(t)
	got, _ := replayAll(t, dir)
	if len(got) != 500 {
		t.Fatalf("intact log replayed %d records, want 500", len(got))
	}

	for _, tc := range []struct {
		name   string
		remove int
	}{{"first", 0}, {"middle", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir, segs := build(t)
			if err := os.Remove(filepath.Join(dir, segs[tc.remove].name)); err != nil {
				t.Fatal(err)
			}
			st, err := Replay(dir, func(Record) error { return nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replayed %d records with err = %v, want ErrCorrupt", st.Records, err)
			}
		})
	}
}

// TestLegacyCheckpointRefused: a directory written by a version that kept a
// checkpoint file may have had the segments under it deleted, so every way
// into the log must refuse it by name rather than read around the hole.
func TestLegacyCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(5))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint"), []byte("DOCSCKP2"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, enter := range map[string]func() error{
		"Open":    func() error { _, err := Open(dir, Options{}); return err },
		"Replay":  func() error { _, err := Replay(dir, func(Record) error { return nil }); return err },
		"TailSeq": func() error { _, err := TailSeq(dir); return err },
	} {
		if err := enter(); err == nil || !strings.Contains(err.Error(), `"checkpoint"`) {
			t.Errorf("%s: err = %v, want a refusal naming the checkpoint file", name, err)
		}
	}
}

// TestHeaderCrashWindows cuts a segment — its header, then its first
// frame — at every byte. As the last segment, the cut is a torn tail: the
// log replays empty, Open truncates it to the zero-byte file a fresh
// segment is, and the next append lands behind a new header. Only the
// header whole and nothing after it is a clean empty segment. As any other
// segment, the same cut is ErrCorrupt.
func TestHeaderCrashWindows(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, fmt.Sprintf("%016x%s", 1, segmentSuffix))
	if info, err := os.Stat(seg); err != nil || info.Size() != 0 {
		t.Fatalf("a segment nothing was written to: %v, %v; want a zero-byte file", info, err)
	}
	appendAll(t, l, testRecords(1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	header := appendHeader(nil, 1)
	if !bytes.HasPrefix(data, header) || len(data) <= len(header)+1 {
		t.Fatalf("segment %x does not open with the header and a frame", data)
	}
	// A whole second segment, for the cut to sit in front of.
	next := segmentOf(2, answerRec("w", 0, 0))
	for cut := 0; cut < len(data); cut++ {
		final := t.TempDir()
		if err := os.WriteFile(filepath.Join(final, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, st := replayAll(t, final)
		if torn := cut > 0 && cut != len(header); len(got) != 0 || st.TornTail != torn {
			t.Fatalf("cut %d: replayed %d records (torn %v), want none (torn %v)", cut, len(got), st.TornTail, torn)
		}
		l, err := Open(final, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if seq, err := l.Append(answerRec("late", 1, 0)); err != nil || seq != 1 {
			t.Fatalf("cut %d: append: seq %d, %v", cut, seq, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, st := replayAll(t, final); len(got) != 1 || st.TornTail {
			t.Fatalf("cut %d: after Open and append, replayed %d records (torn %v), want 1", cut, len(got), st.TornTail)
		}

		inner := t.TempDir()
		if err := os.WriteFile(filepath.Join(inner, filepath.Base(seg)), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(inner, fmt.Sprintf("%016x%s", 2, segmentSuffix)), next, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(inner, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d in a segment that is not the last: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestFormatV0Refused: a log of any format version but this build's has no
// reader. Each row is a log this build wrote, in segments of 1 KiB, with the
// headers retagged as another version opens a segment: version 0, which had
// no header, and the retired versions 1 and 2, each named with the last
// commit that reads it, and version 4, which no build writes yet. Every way
// into the log refuses each with that one error and leaves every byte of
// the directory as it was — also when the last segment is empty, which
// says nothing of the format by itself, and when the older version's first
// segment is followed by this build's, which any single segment of the log
// but the first would pass for a log of this version.
func TestFormatV0Refused(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(300))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("%d segments (%v), want several", len(segs), err)
	}
	current := map[string][]byte{}
	for _, seg := range segs {
		if current[seg.name], err = os.ReadFile(filepath.Join(dir, seg.name)); err != nil {
			t.Fatal(err)
		}
	}
	next := fmt.Sprintf("%016x%s", 301, segmentSuffix) // the segment after the last record
	for v, commit := range map[uint64]string{0: "af9f454", 1: "a3e04fd", 2: "21c7a3e", 4: ""} {
		want := fmt.Sprintf("format v%d; this build reads v3", v)
		if commit != "" {
			want += fmt.Sprintf("; %s is the last commit that reads v%d", commit, v)
		}
		older, firstOnly := map[string][]byte{}, map[string][]byte{}
		for _, seg := range segs {
			older[seg.name] = retag(current[seg.name], seg.firstSeq, v)
			firstOnly[seg.name] = current[seg.name]
		}
		firstOnly[segs[0].name] = older[segs[0].name]
		withEmpty := map[string][]byte{next: nil}
		for name, data := range older {
			withEmpty[name] = data
		}
		for shape, files := range map[string]map[string][]byte{
			"every segment": older, "the first segment": firstOnly, "an empty segment after": withEmpty,
			"one segment": {segs[0].name: older[segs[0].name]},
		} {
			dir := t.TempDir()
			for f, b := range files {
				if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for entry, enter := range map[string]func() error{
				"Open":    func() error { _, err := Open(dir, Options{}); return err },
				"Replay":  func() error { _, err := Replay(dir, func(Record) error { return nil }); return err },
				"TailSeq": func() error { _, err := TailSeq(dir); return err },
			} {
				if err := enter(); err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Errorf("v%d in %s, %s: err = %v, want a refusal ending %q", v, shape, entry, err, want)
				}
				for f, b := range files {
					if got, err := os.ReadFile(filepath.Join(dir, f)); err != nil || !bytes.Equal(got, b) {
						t.Fatalf("v%d in %s, %s: %s changed (%v)", v, shape, entry, f, err)
					}
				}
				if entries, _ := os.ReadDir(dir); len(entries) != len(files) {
					t.Fatalf("v%d in %s, %s: the directory holds %d files, want %d", v, shape, entry, len(entries), len(files))
				}
			}
		}
	}
}

// retag is seg, a segment this build wrote starting at first, as format
// version v opens one: with a header saying v or, for version 0, which had
// none, with a record frame (kind | sequence number, as its records
// opened). What follows stays this build's: a refusal reads no further.
func retag(seg []byte, first, v uint64) []byte {
	payload := binary.AppendUvarint([]byte(segmentMagic), v)
	if v == 0 {
		payload = []byte{byte(KindPublish)}
	}
	return append(EncodeFrame(nil, binary.AppendUvarint(payload, first)), seg[len(appendHeader(nil, first)):]...)
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 4 * minSegmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		perG       = 100
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := l.Append(answerRec(fmt.Sprintf("g%d", g), i, 0)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if len(got) != goroutines*perG || st.TornTail {
		t.Fatalf("replayed %d records (torn=%v), want %d", len(got), st.TornTail, goroutines*perG)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: replay order must equal sequence order", i, r.Seq)
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(answerRec("w", 0, 0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}

// TestReserveRefusesOversizeRecord: every reader treats a frame longer than
// MaxPayload as corruption, so the writer must never produce one. A record
// that large is refused whole — no sequence number, no bytes, no poison —
// where it used to be written, acknowledged, and fatal to the next boot.
func TestReserveRefusesOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(3))
	// Record 4's payload is a kind byte, a four-byte length and the blob.
	const fits = MaxPayload - 5
	for _, n := range []int{fits + 1, MaxPayload + 1<<20} {
		_, err := l.Append(Record{Kind: KindPublish, Blob: make([]byte, n)})
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("append of a %d-byte blob: err = %v, want ErrTooLarge", n, err)
		}
		if got := l.ReservedSeq(); got != 3 {
			t.Fatalf("refused record moved the reserved sequence to %d", got)
		}
	}
	// The largest record that can be read back is accepted and takes the
	// next number; MaxBlob, what callers are promised, is below it.
	if seq, err := l.Append(Record{Kind: KindPublish, Blob: make([]byte, fits)}); err != nil || seq != 4 || MaxBlob > fits {
		t.Fatalf("append of a %d-byte blob (MaxBlob %d): seq %d, err %v", fits, MaxBlob, seq, err)
	}
	if seq, err := l.Append(answerRec("w", 1, 1)); err != nil || seq != 5 {
		t.Fatalf("append after the refusals: seq %d, err %v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, st := replayAll(t, dir)
	if len(got) != 5 || st.TornTail || len(got[3].Blob) != fits {
		t.Fatalf("replayed %d records (torn %v), want the 5 accepted", len(got), st.TornTail)
	}
}

func TestSyncEveryBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, testRecords(20))
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, dir)
	if len(got) != 20 {
		t.Fatalf("replayed %d, want 20", len(got))
	}
}

// TestFailedFsyncRefusesItsBatch fails one batch's fsync: the append
// reports it, the log refuses every later record, and the file holds only
// what was acknowledged before — a refused record never replays.
func TestFailedFsyncRefusesItsBatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncEveryBatch})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(6)
	appendAll(t, l, recs[:5])
	FailFsyncAt(1)
	defer FailFsyncAt(0)
	if _, err := l.Append(recs[5]); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("append over a failed fsync = %v, want ErrInjectedFsync", err)
	}
	if _, err := l.Append(recs[5]); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("append on a poisoned log = %v, want the first failure", err)
	}
	if err := l.Close(); !errors.Is(err, ErrInjectedFsync) {
		t.Fatalf("close of a poisoned log = %v, want the first failure", err)
	}
	got, st := replayAll(t, dir)
	if len(got) != 5 || st.TornTail {
		t.Fatalf("replayed %d records (torn %v), want the 5 acknowledged", len(got), st.TornTail)
	}
}

// TestSyncSkipsCleanLog holds Sync and Close to the dirty bit: an fsync is
// issued exactly when a byte of the active segment may be unsynced — after
// a write the policy did not sync, or over a segment an earlier process
// left behind — and never on a log that can show it is clean.
func TestSyncSkipsCleanLog(t *testing.T) {
	// step runs op and returns how many fsyncs it cost.
	step := func(t *testing.T, what string, want int64, op func() error) {
		t.Helper()
		before := Fsyncs()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := Fsyncs() - before; got != want {
			t.Fatalf("%s: %d fsyncs, want %d", what, got, want)
		}
	}
	appendOne := func(l *Log) func() error {
		return func() error { _, err := l.Append(answerRec("w", 1, 0)); return err }
	}
	open := func(t *testing.T, dir string, p SyncPolicy) *Log {
		t.Helper()
		l, err := Open(dir, Options{Sync: p})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	t.Run("SyncNever", func(t *testing.T) {
		l := open(t, t.TempDir(), SyncNever)
		step(t, "sync of a fresh empty segment", 0, l.Sync)
		step(t, "append", 0, appendOne(l))
		step(t, "sync after an unsynced write", 1, l.Sync)
		step(t, "second sync", 0, l.Sync)
		step(t, "append", 0, appendOne(l))
		step(t, "close after an unsynced write", 1, l.Close)
	})
	t.Run("SyncEveryBatch", func(t *testing.T) {
		l := open(t, t.TempDir(), SyncEveryBatch)
		step(t, "append", 1, appendOne(l))
		step(t, "sync of a synced batch", 0, l.Sync)
		step(t, "close", 0, l.Close)
	})
	t.Run("reopened", func(t *testing.T) {
		dir := t.TempDir()
		l := open(t, dir, SyncEveryBatch)
		appendAll(t, l, testRecords(3))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// What the last process synced is not this one's knowledge.
		l = open(t, dir, SyncEveryBatch)
		step(t, "sync of a reopened intact log", 1, l.Sync)
		step(t, "close", 0, l.Close)

		seg := filepath.Join(dir, fmt.Sprintf("%016x%s", 1, segmentSuffix))
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{9, 0, 0, 0, 1}); err != nil { // a torn frame header
			t.Fatal(err)
		}
		f.Close()
		l = open(t, dir, SyncEveryBatch)
		step(t, "sync over a truncated torn tail", 1, l.Sync)
		step(t, "close", 0, l.Close)
		if got, st := replayAll(t, dir); len(got) != 3 || st.TornTail {
			t.Fatalf("replayed %d records (torn %v), want 3 and the tear gone", len(got), st.TornTail)
		}
	})
	t.Run("failed fsync", func(t *testing.T) {
		l := open(t, t.TempDir(), SyncNever)
		defer l.Close()
		if err := appendOne(l)(); err != nil {
			t.Fatal(err)
		}
		l.ioMu.Lock()
		l.f.Close() // every later fsync of the segment fails
		l.ioMu.Unlock()
		if err := l.Sync(); err == nil {
			t.Fatal("Sync over a failing fsync returned nil")
		}
		l.ioMu.Lock()
		dirty := l.dirty
		l.ioMu.Unlock()
		if !dirty {
			t.Fatal("a failed fsync cleared the dirty bit")
		}
		if _, err := l.Reserve(answerRec("w", 2, 0)); err == nil {
			t.Fatal("log accepted a record after a failed fsync")
		}
		if err := l.Sync(); err == nil {
			t.Fatal("poisoned log reported a clean Sync")
		}
	})
}
