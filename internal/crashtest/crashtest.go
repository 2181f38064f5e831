// Package crashtest is the one oracle for "live equals its log": Run, the
// scenario driver, runs a campaign system live over a seeded op stream and
// boots its durable tree at every cut — each acknowledged boundary, a torn
// prefix of the next frame, a store log that lost its final record, drawn
// kill points — holding every boot to the live state, or for a kill point
// to the serial replay of the records it left, as float bits. A kill
// point's boot must also replay exactly those records, from no snapshot,
// report a torn cut as a torn tail and log nothing to the store; the final
// boot must find no torn tail. A package's tests adapt their system to it
// once (Campaign), and a scenario's traffic drives that adapter through its
// own calls.
//
// A crash image is what a kill -9 leaves of a log namespace: the segments
// written before the kill point whole, the one holding it truncated there,
// the later ones absent — they did not exist yet. Cut is the one primitive
// that writes such an image; Log.Cut (a kill after some whole records, plus
// a few torn bytes of the next frame) and Grow (an earlier capture plus a
// torn prefix of the next operation's first new frame) compute its offsets.
// Beside them sit the stream reader, each segment's frame offsets,
// DropLast, CopyTree, the kill-point draw and the diff reporter. The
// package is test support: no non-test file imports it.
package crashtest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"docs/internal/mathx"
	"docs/internal/wal"
)

// Kill is one kill point of a record stream.
type Kill struct {
	Surviving int   // whole records that reached disk
	Torn      int64 // bytes of the next frame that reached disk too
}

// Draw draws one kill point over a stream of n records: Surviving uniform
// in [lo, n], and about a third of the cuts short of n torn 1–16 bytes into
// the next frame.
func Draw(r *mathx.Rand, n, lo int) Kill {
	k := Kill{Surviving: lo + int(r.Float64()*float64(n+1-lo))}
	if k.Surviving > n {
		k.Surviving = n
	}
	if k.Surviving < n && r.Float64() < 0.35 {
		k.Torn = 1 + int64(r.Float64()*16)
	}
	return k
}

// Kills draws count kill points, adds extra, and sorts them by Surviving so
// a serial reference can advance through them incrementally.
func Kills(r *mathx.Rand, count, n, lo int, extra ...Kill) []Kill {
	kills := make([]Kill, 0, count+len(extra))
	for i := 0; i < count; i++ {
		kills = append(kills, Draw(r, n, lo))
	}
	kills = append(kills, extra...)
	sort.Slice(kills, func(i, j int) bool { return kills[i].Surviving < kills[j].Surviving })
	return kills
}

// ReadStream reads back the record stream of a cleanly closed log; a torn
// tail fails the test.
func ReadStream(t testing.TB, dir string) []wal.Record {
	t.Helper()
	var recs []wal.Record
	st, err := wal.Replay(dir, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTail {
		t.Fatalf("%s: a cleanly closed log left a torn tail", dir)
	}
	return recs
}

// Frame is where one record's frame lies: its segment file and the byte
// offsets [Start, End) there.
type Frame struct {
	Seg        string
	Seq        uint64
	Start, End int64
}

// SegmentFrames lists the record frames of one segment file in log order,
// by wal.ScanSegment's offsets. The error is the scan's: a torn, corrupt or
// refused segment.
func SegmentFrames(path string) ([]Frame, error) {
	var frames []Frame
	err := wal.ScanSegment(path, func(rec wal.Record, start, end int64) error {
		frames = append(frames, Frame{Seg: filepath.Base(path), Seq: rec.Seq, Start: start, End: end})
		return nil
	})
	return frames, err
}

// frames is SegmentFrames failing the test on a scan error.
func frames(t testing.TB, path string) []Frame {
	t.Helper()
	fr, err := SegmentFrames(path)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// segments lists dir's segment files; their zero-padded hex names sort in
// sequence order.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".wal") {
			names = append(names, e.Name())
		}
	}
	return names
}

// Cut writes into dst the crash image of the log in src killed at byte off
// of segment seg: the segments before seg whole, seg truncated at off, later
// segments absent. seg "" is a kill before any segment byte: dst is empty.
func Cut(t testing.TB, src, dst, seg string, off int64) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if seg == "" {
		return
	}
	for _, name := range segments(t, src) {
		if name > seg {
			break
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == seg {
			data = data[:off]
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Log is a cleanly closed log: its record stream and where each record's
// frame lies.
type Log struct {
	dir     string
	Records []wal.Record
	frames  map[uint64]Frame
}

// ReadLog reads the log in dir; a torn tail, or a record no segment frame
// holds, fails the test.
func ReadLog(t testing.TB, dir string) *Log {
	t.Helper()
	l := &Log{dir: dir, Records: ReadStream(t, dir), frames: map[uint64]Frame{}}
	for _, name := range segments(t, dir) {
		for _, f := range frames(t, filepath.Join(dir, name)) {
			l.frames[f.Seq] = f
		}
	}
	for _, rec := range l.Records {
		if _, ok := l.frames[rec.Seq]; !ok {
			t.Fatalf("%s: record %d found in no segment", dir, rec.Seq)
		}
	}
	return l
}

// Cut writes into dst the image of a kill after k.Surviving whole records
// and k.Torn bytes of the next frame, capped to stay strictly inside it.
func (l *Log) Cut(t testing.TB, dst string, k Kill) {
	t.Helper()
	seg, off := "", int64(0)
	if k.Surviving > 0 {
		f := l.frames[l.Records[k.Surviving-1].Seq]
		seg, off = f.Seg, f.End
	}
	if k.Torn > 0 && k.Surviving < len(l.Records) {
		next := l.frames[l.Records[k.Surviving].Seq]
		if next.Seg != seg {
			seg, off = next.Seg, next.Start
		}
		off += min(k.Torn, next.End-next.Start-1)
	}
	Cut(t, l.dir, dst, seg, off)
}

// Grow writes into dst the image "prev plus a torn final frame": prev and
// next are captures of one log taken before and after an operation, and the
// image holds prev's bytes plus a strict prefix — frac of its length, at
// least one byte — of the first frame the operation added. That frame is a
// new segment's header when the operation opened one. Grow reports false
// when the log did not grow between the captures.
func Grow(t testing.TB, prev, next, dst string, frac float64) bool {
	t.Helper()
	for _, name := range segments(t, next) {
		before := int64(0)
		if fi, err := os.Stat(filepath.Join(prev, name)); err == nil {
			before = fi.Size()
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(next, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() <= before {
			continue
		}
		// Segments are append-only, so this one holds the first new frame:
		// the header's when the segment is new, a record's otherwise.
		end := int64(0)
		for _, f := range frames(t, filepath.Join(next, name)) {
			for _, b := range []int64{f.Start, f.End} {
				if end == 0 && b > before {
					end = b
				}
			}
		}
		if end == 0 {
			continue
		}
		n := end - before
		k := max(int64(frac*float64(n)), 1)
		Cut(t, next, dst, name, before+min(k, n-1))
		return true
	}
	return false
}

// DropLast cuts the final record off a log's last segment: the image of a
// crash that lost that record's write and nothing before it.
func DropLast(t testing.TB, dir string) {
	t.Helper()
	names := segments(t, dir)
	if len(names) == 0 {
		t.Fatalf("no segments in %s", dir)
	}
	last := filepath.Join(dir, names[len(names)-1])
	fr := frames(t, last)
	if len(fr) == 0 {
		t.Fatalf("%s holds no record to drop", last)
	}
	if err := os.Truncate(last, fr[len(fr)-1].Start); err != nil {
		t.Fatal(err)
	}
}

// CopyTree copies a directory tree with plain file reads. Between the
// acknowledged operations of a serial workload the files are quiescent, so
// the copy is the image a kill -9 leaves at that boundary.
func CopyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ReportEnv names the directory a failing sweep writes its diff reports to
// (CI uploads it).
const ReportEnv = "LIVE_DIFF_REPORT"

// Report writes a failed comparison's diff to <test>-<label>.diff under the
// directory ReportEnv names, when it names one, and returns the diff for the
// failure message.
func Report(t testing.TB, label, diff string) string {
	t.Helper()
	if dir := os.Getenv(ReportEnv); dir != "" {
		name := filepath.Join(dir, fmt.Sprintf("%s-%s.diff", t.Name(), label))
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err == nil {
			_ = os.WriteFile(name, []byte(diff), 0o644)
		}
	}
	return diff
}
