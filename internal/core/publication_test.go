package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"docs/internal/crashtest"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/wal"
)

// sampleTasks is a small publication over m = 4 domains that exercises
// every shape the codec has: a two-entry vector, −0 and a denormal beside
// a spike, the uniform vector, empty text, NoTruth and set truths, a
// multi-byte ID.
func sampleTasks() []*model.Task {
	return []*model.Task{
		{ID: 0, Text: "Who wins more NBA championships?", Choices: []string{"Kobe", "Shaq"},
			Domain: model.DomainVector{0, 0.25, 0, 0.75}, Truth: 1, TrueDomain: 3},
		{ID: 1, Text: "", Choices: []string{"a", "b", "c"},
			Domain: model.DomainVector{math.Copysign(0, -1), 1, math.Float64frombits(1), 0},
			Truth:  model.NoTruth, TrueDomain: model.NoTruth},
		{ID: 300, Text: "domain unknown — ünïcode", Choices: []string{"yes", "no"},
			Domain: model.DomainVector{0.25, 0.25, 0.25, 0.25}, Truth: 0, TrueDomain: model.NoTruth},
	}
}

// twinTasks repeat two vectors and give one of them twins that == would
// not tell apart: a −0 where the others hold +0, in two places.
func twinTasks() []*model.Task {
	negZero := math.Copysign(0, -1)
	vectors := []model.DomainVector{{0, 1, 0, 0}, {0.5, 0, 0.5, 0}, {0, 1, 0, 0}, {negZero, 1, 0, 0},
		{0.5, 0, 0.5, 0}, {0, 1, negZero, 0}, {negZero, 1, 0, 0}}
	tasks := make([]*model.Task, len(vectors))
	for i, v := range vectors {
		tasks[i] = &model.Task{ID: i, Text: "twin", Choices: []string{"a", "b"}, Domain: v,
			Truth: model.NoTruth, TrueDomain: model.NoTruth}
	}
	return tasks
}

// encodeBinaryPublication is the serial encoder packRecord replaced, kept
// as its oracle: it renders a published task set — every task carrying its
// m-long domain vector — as a DPC1 blob in one pass, column by column, the
// table found by a linear search.
func encodeBinaryPublication(tasks []*model.Task, m int) ([]byte, error) {
	b := binary.AppendUvarint([]byte(publicationMagic), uint64(m))
	b = binary.AppendUvarint(b, uint64(len(tasks)))
	prev := -1
	for _, t := range tasks {
		if t.ID < 0 || t.Truth < model.NoTruth || t.TrueDomain < model.NoTruth {
			return nil, fmt.Errorf("core: publication: task %d (truth %d, true domain %d) has a negative field",
				t.ID, t.Truth, t.TrueDomain)
		}
		b = binary.AppendUvarint(b, zigzag(t.ID-prev-1))
		prev = t.ID
	}
	for _, t := range tasks {
		b = appendTstr(b, t.Text)
	}
	for _, t := range tasks {
		b = binary.AppendUvarint(b, uint64(len(t.Choices)))
		for _, c := range t.Choices {
			b = appendTstr(b, c)
		}
	}
	for _, t := range tasks {
		b = binary.AppendUvarint(b, uint64(t.Truth+1))
	}
	for _, t := range tasks {
		b = binary.AppendUvarint(b, uint64(t.TrueDomain+1))
	}
	var table [][]byte
	for _, t := range tasks {
		if len(t.Domain) != m {
			return nil, fmt.Errorf("core: publication: task %d has a domain vector of size %d, want %d",
				t.ID, len(t.Domain), m)
		}
		vector, err := wal.AppendSparseFloats(nil, wal.SparseOf(wal.SparseFloats{}, t.Domain, 0), m, 0)
		if err != nil {
			return nil, fmt.Errorf("core: publication: task %d: %w", t.ID, err)
		}
		ref := slices.IndexFunc(table, func(e []byte) bool { return bytes.Equal(e, vector) })
		if ref < 0 {
			ref, table = len(table), append(table, vector)
		}
		b = binary.AppendUvarint(b, uint64(ref))
	}
	return append(b, bytes.Join(table, nil)...), nil
}

// encodeRowPublication is the row-major encoder builds up to 7137417
// logged with, kept to write the fixtures of its refusal: a DPB1 blob,
// task after task, each with its own copy of its vector.
func encodeRowPublication(tasks []*model.Task, m int) []byte {
	b := binary.AppendUvarint([]byte("DPB1"), uint64(m))
	b = binary.AppendUvarint(b, uint64(len(tasks)))
	for _, t := range tasks {
		b = binary.AppendUvarint(b, uint64(t.ID))
		b = appendStr(b, t.Text)
		b = binary.AppendUvarint(b, uint64(len(t.Choices)))
		for _, c := range t.Choices {
			b = appendStr(b, c)
		}
		b = binary.AppendUvarint(b, uint64(t.Truth+1))
		b = binary.AppendUvarint(b, uint64(t.TrueDomain+1))
		b, _ = wal.AppendSparseFloats(b, wal.SparseOf(wal.SparseFloats{}, t.Domain, 0), m, 0)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// packPublication is the serial packer packRecord replaced, kept as its
// oracle: a DPC1 blob's DPC4 packing, the pinned writer given the whole
// body in one pass, when that is the shorter; the blob itself otherwise.
func packPublication(dpc1 []byte) []byte {
	body := dpc1[len(publicationMagic):]
	if packed := packedBlob(deflateMagic, uint64(len(body)), deflateStream(body)); len(packed) < len(dpc1) {
		return packed
	}
	return dpc1
}

// serialPublication is the record the serial path logs for a task set:
// encodeBinaryPublication's DPC1 blob, packed by packPublication.
func serialPublication(t testing.TB, tasks []*model.Task, m int) []byte {
	t.Helper()
	return packPublication(mustEncodeBinaryPublication(t, tasks, m))
}

// encodePublication is the record Publish logs for a task set whose domain
// vectors are all set: its DPC1 blob, packed as DPC4 when that is shorter.
func encodePublication(tasks []*model.Task, m int) ([]byte, error) {
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	return packRecord(batchOf(tasks, m), d, func() error { return nil }, func([]byte) {})
}

// mustEncodePublication is the record Publish logs: DPC4 when packing is
// shorter, DPC1 otherwise.
func mustEncodePublication(t testing.TB, tasks []*model.Task, m int) []byte {
	t.Helper()
	blob, err := encodePublication(tasks, m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// mustEncodeBinaryPublication is the DPC1 blob, packed or not.
func mustEncodeBinaryPublication(t testing.TB, tasks []*model.Task, m int) []byte {
	t.Helper()
	blob, err := encodeBinaryPublication(tasks, m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// packedBlob assembles a packed blob from its parts, consistent or not.
func packedBlob(magic string, n uint64, stream []byte) []byte {
	return append(binary.AppendUvarint([]byte(magic), n), stream...)
}

// datasetPublications is the first 200 tasks of each of the four datasets
// as Publish logs them: after DVE, over the default domain set.
func datasetPublications(t *testing.T) (names []string, sets [][]*model.Task, m int) {
	t.Helper()
	for _, ds := range dataset.All(1) {
		s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
		tasks := ds.Tasks[:200]
		if err := s.Publish(tasks); err != nil {
			t.Fatal(err)
		}
		m = s.m
		names, sets = append(names, ds.Name), append(sets, publishedTasks(s))
		s.Close()
	}
	return names, sets, m
}

// randomTextTasks is a task set whose texts are random bytes, hundreds to
// a task. Their literals cost DEFLATE about 8 bits, so up to five tasks the
// stream's code header costs more than the rest of each task wins back and
// the record stays DPC1; more tasks pack.
func randomTextTasks(n int) []*model.Task {
	r := mathx.NewRand(30)
	tasks := make([]*model.Task, n)
	for i := range tasks {
		text := make([]byte, 400+r.Intn(600))
		for j := range text {
			text[j] = byte(r.Intn(256))
		}
		tasks[i] = &model.Task{ID: i, Text: string(text), Choices: []string{"yes", "no"},
			Domain: model.DomainVector{0, 1, 0, 0}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	}
	return tasks
}

// roundTrip holds one task set to the codec's contract in each of its
// forms and returns the record Publish would log. The DPC1 blob and the
// record each decode to the tasks field by field (floats as bits) and are
// canonical: encoding what they decode to gives back the same bytes. The
// record is DPC4 and shorter than the DPC1 blob, or is the DPC1 blob.
func roundTrip(t *testing.T, name string, tasks []*model.Task, m int) []byte {
	t.Helper()
	dpc1 := mustEncodeBinaryPublication(t, tasks, m)
	rec := mustEncodePublication(t, tasks, m)
	if packed := bytes.HasPrefix(rec, []byte(deflateMagic)); packed && len(rec) >= len(dpc1) || !packed && !bytes.Equal(rec, dpc1) {
		t.Fatalf("%s: logged %d bytes opening %q for a %d-byte DPC1 blob", name, len(rec), rec[:4], len(dpc1))
	}
	for form, encode := range map[string]func(t testing.TB, tasks []*model.Task, m int) []byte{
		"DPC1 blob": mustEncodeBinaryPublication,
		"record":    mustEncodePublication,
	} {
		blob := encode(t, tasks, m)
		got, err := decodeTasks(wal.Record{Seq: 1, Blob: blob}, m)
		if err != nil {
			t.Fatalf("%s: %s: %v", name, form, err)
		}
		sameTasks(t, got, tasks)
		if again := encode(t, got, m); !bytes.Equal(again, blob) {
			t.Fatalf("%s: %s: re-encoding differs:\n in  %x\n out %x", name, form, blob, again)
		}
	}
	return rec
}

// sameTasks compares two task sets field by field, floats as bits.
func sameTasks(t *testing.T, got, want []*model.Task) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d tasks, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.Text != w.Text || g.Truth != w.Truth || g.TrueDomain != w.TrueDomain {
			t.Fatalf("task %d: got %+v, want %+v", i, g, w)
		}
		if len(g.Choices) != len(w.Choices) || len(g.Domain) != len(w.Domain) {
			t.Fatalf("task %d: got %d choices and %d domains, want %d and %d",
				i, len(g.Choices), len(g.Domain), len(w.Choices), len(w.Domain))
		}
		for c := range w.Choices {
			if g.Choices[c] != w.Choices[c] {
				t.Fatalf("task %d choice %d: got %q, want %q", i, c, g.Choices[c], w.Choices[c])
			}
		}
		for k := range w.Domain {
			if math.Float64bits(g.Domain[k]) != math.Float64bits(w.Domain[k]) {
				t.Fatalf("task %d domain %d: got bits %#x, want %#x",
					i, k, math.Float64bits(g.Domain[k]), math.Float64bits(w.Domain[k]))
			}
		}
	}
}

// TestPropertyPublicationRoundTrip: seeded task sets — sparse mixes,
// single spikes, the uniform vector, −0, denormals and NaN payloads, empty
// texts and choices and ones holding 0x00 and 0x01 bytes, NoTruth and set
// truths, over several domain counts — the first 200 tasks of the four
// datasets after DVE, and sampleTasks' −0 and denormal vectors decode to
// the same tasks field by field (floats compared as bits) from the DPC1
// blob and from the record Publish logs, and each is canonical:
// encode(decode(b)) == b. The datasets and sampleTasks log DPC4, the
// seeded sets both forms, and three tasks of random-byte text stay DPC1.
func TestPropertyPublicationRoundTrip(t *testing.T) {
	names, sets, m := datasetPublications(t)
	for i, tasks := range sets {
		if rec := roundTrip(t, names[i], tasks, m); !bytes.HasPrefix(rec, []byte(deflateMagic)) {
			t.Errorf("%s logs %q, want a packed record", names[i], rec[:4])
		}
	}
	if rec := roundTrip(t, "sampleTasks", sampleTasks(), 4); !bytes.HasPrefix(rec, []byte(deflateMagic)) {
		t.Errorf("sampleTasks logs %q, want a packed record", rec[:4])
	}
	if rec := roundTrip(t, "random text", randomTextTasks(3), 4); !bytes.HasPrefix(rec, []byte(publicationMagic)) {
		t.Errorf("random text logs %q, want the DPC1 blob", rec[:4])
	}
	roundTrip(t, "servedTasks", servedTasks(4), 4)

	forms, escaped, empty := map[string]int{}, 0, 0
	for round, set := range seededPublications() {
		forms[string(roundTrip(t, fmt.Sprintf("round %d", round), set.tasks, set.m)[:4])]++
		for _, tk := range set.tasks {
			for _, str := range append([]string{tk.Text}, tk.Choices...) {
				if strings.ContainsAny(str, "\x00\x01") {
					escaped++
				}
				if str == "" {
					empty++
				}
			}
		}
	}
	if forms[deflateMagic] == 0 || forms[publicationMagic] == 0 {
		t.Errorf("seeded rounds logged %v, want both forms", forms)
	}
	if escaped == 0 || empty == 0 {
		t.Errorf("seeded rounds drew %d strings holding 0x00 or 0x01 and %d empty ones, want some of each", escaped, empty)
	}
}

// draw joins zero to three pieces drawn from pieces: the empty string a
// quarter of the time.
func draw(r *mathx.Rand, pieces []string) string {
	var b strings.Builder
	for n := r.Intn(4); n > 0; n-- {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

type seededSet struct {
	tasks []*model.Task
	m     int
}

// seededPublications is 200 seeded task sets — sparse mixes, single
// spikes, the uniform vector, −0, denormals and NaN payloads, empty texts
// and choices and ones holding the 0x00 and 0x01 bytes a terminated string
// escapes, NoTruth and set truths — over 1, 4 and 26 domains.
func seededPublications() []seededSet {
	r := mathx.NewRand(24)
	odd := []float64{math.Copysign(0, -1), math.Float64frombits(1), math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.MaxFloat64, 1 - 1e-16}
	sets := make([]seededSet, 200)
	for round := range sets {
		m := []int{1, 4, 26}[r.Intn(3)]
		tasks := make([]*model.Task, r.Intn(20))
		for i := range tasks {
			tk := &model.Task{ID: r.Intn(1 << uint(1+r.Intn(40))), Truth: model.NoTruth, TrueDomain: model.NoTruth}
			tk.Text = draw(r, []string{"tëxt ", "\x00", "\x01", "a\x01\x02b "})
			tk.Choices = make([]string, r.Intn(5))
			for c := range tk.Choices {
				tk.Choices[c] = draw(r, []string{"c", "\x00", "\x01c\x00"})
			}
			if len(tk.Choices) > 0 && r.Intn(2) == 0 {
				tk.Truth = r.Intn(len(tk.Choices))
			}
			if r.Intn(2) == 0 {
				tk.TrueDomain = r.Intn(m)
			}
			tk.Domain = make(model.DomainVector, m)
			switch r.Intn(4) {
			case 0: // single spike
				tk.Domain[r.Intn(m)] = 1
			case 1: // uniform
				for k := range tk.Domain {
					tk.Domain[k] = 1 / float64(m)
				}
			case 2: // the two or three domains DVE gives weight
				for j := 0; j < 3; j++ {
					tk.Domain[r.Intn(m)] = r.Float64()
				}
			case 3: // values only raw bits carry
				for j := 0; j < 3; j++ {
					tk.Domain[r.Intn(m)] = odd[r.Intn(len(odd))]
				}
			}
			tasks[i] = tk
		}
		sets[round] = seededSet{tasks, m}
	}
	return sets
}

func TestEncodePublicationRejectsInexpressible(t *testing.T) {
	for name, edit := range map[string]func(*model.Task){
		"negative ID":          func(tk *model.Task) { tk.ID = -1 },
		"truth below NoTruth":  func(tk *model.Task) { tk.Truth = -2 },
		"domain below NoTruth": func(tk *model.Task) { tk.TrueDomain = -2 },
		"no domain vector":     func(tk *model.Task) { tk.Domain = nil },
		"short domain vector":  func(tk *model.Task) { tk.Domain = tk.Domain[:3] },
	} {
		tasks := sampleTasks()
		edit(tasks[1])
		if blob, err := encodePublication(tasks, 4); err == nil {
			t.Errorf("%s: encoded to %d bytes", name, len(blob))
		}
	}
}

// checkPublicationDecode holds one decode of arbitrary bytes to the
// codec's contract: an error, or tasks that all carry an m-long vector and
// were not allocated beyond what the DPC1 blob's length bounds (the input,
// or what a packed input unpacks to). An accepted DPC1 blob re-encodes to
// exactly the input. An accepted DPC4 blob decodes to one state, however
// its stream is spelled: it unpacks to a DPC1 blob that re-encodes to
// itself, and the record Publish logs for its tasks decodes to the same
// task table.
func checkPublicationDecode(t *testing.T, data []byte, m int) {
	t.Helper()
	pub, err := decodePublication(wal.Record{Seq: 9, Blob: data}, m)
	if err != nil {
		if pub != nil || !strings.HasPrefix(err.Error(), "publish record 9: ") {
			t.Fatalf("rejection returned a publication, error %v", err)
		}
		return
	}
	tasks, strs := pub.tasks(), 0
	for _, tk := range tasks {
		if len(tk.Domain) != m {
			t.Fatalf("task %d decoded with a %d-long domain vector, want %d", tk.ID, len(tk.Domain), m)
		}
		strs += len(tk.Text) + len(tk.Choices)
		for _, c := range tk.Choices {
			strs += len(c)
		}
	}
	if arrays, encodings := vectorSharing(t, tasks, m); arrays != encodings {
		t.Fatalf("decoded %d vector arrays for %d distinct encodings", arrays, encodings)
	}
	packed, dpc1 := bytes.HasPrefix(data, []byte(deflateMagic)), data
	if packed {
		if dpc1, err = unpackPublication(data); err != nil {
			t.Fatalf("a decoded DPC4 blob does not unpack: %v", err)
		}
	}
	if len(tasks)*minTaskBytes > len(dpc1) || strs > len(dpc1) {
		t.Fatalf("decoded %d tasks and %d string bytes out of %d bytes", len(tasks), strs, len(dpc1))
	}
	again, err := encodeBinaryPublication(tasks, m)
	if err != nil {
		t.Fatalf("accepted publication does not re-encode: %v", err)
	}
	if !bytes.Equal(again, dpc1) {
		t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", dpc1, again)
	}
	if !packed {
		return
	}
	repacked, err := decodePublication(wal.Record{Blob: mustEncodePublication(t, tasks, m)}, m)
	if err != nil || !sameTable(repacked, pub) {
		t.Fatalf("the tasks of an accepted DPC4 blob, packed again, decode to another table (%v)", err)
	}
}

// escapedTasks are twinTasks with 0x00 and 0x01 bytes in a text and a
// choice, and an empty choice.
func escapedTasks() []*model.Task {
	tasks := twinTasks()
	tasks[0].Text = "t\x00w\x01in"
	tasks[1].Choices = []string{"\x01\x00", ""}
	return tasks
}

// cat joins byte strings.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestPublicationDecodeDamage is the DOCSSNP3 sweep for the publication
// blob, over sampleTasks' DPC1 blob and its DPC4 record and escapedTasks'
// DPC1 blob: every single-byte truncation of a valid blob errors, and
// every single-bit flip either errors or decodes to one state
// (checkPublicationDecode) — it never panics and never over-allocates — and
// hand-made blobs the encoder would not write are all rejected. (Unlike a
// snapshot the blob has no CRC of its own; the WAL frame around it does.)
func TestPublicationDecodeDamage(t *testing.T) {
	data := mustEncodeBinaryPublication(t, sampleTasks(), 4)
	packed := mustEncodePublication(t, sampleTasks(), 4)
	if !bytes.HasPrefix(packed, []byte(deflateMagic)) {
		t.Fatalf("sampleTasks packs to %q, want %q", packed[:4], deflateMagic)
	}
	for _, valid := range [][]byte{data, packed, mustEncodeBinaryPublication(t, escapedTasks(), 4)} {
		for cut := 0; cut < len(valid); cut++ {
			if tasks, err := decodeTasks(wal.Record{Blob: valid[:cut]}, 4); err == nil || tasks != nil {
				t.Fatalf("%q truncated at %d: decoded to %d tasks", valid[:4], cut, len(tasks))
			}
		}
		for bit := 0; bit < 8*len(valid); bit++ {
			flipped := append([]byte(nil), valid...)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkPublicationDecode(t, flipped, 4)
		}
	}

	// one is a task with ID 7, an empty text, no choices, no truth and no
	// true domain, adding the table's one entry.
	one := func(entry ...byte) []byte {
		return cat([]byte(publicationMagic), []byte{4, 1, 14, 0, 0, 0, 0, 0}, entry)
	}
	bits := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	entry := func(k byte, x float64) []byte { return append([]byte{k}, bits(x)...) }
	if _, err := decodePublication(wal.Record{Blob: one(cat([]byte{2}, entry(1, 0.5), entry(3, 0.5))...)}, 4); err != nil {
		t.Fatalf("the hand-made baseline does not decode: %v", err)
	}
	for name, blob := range map[string][]byte{
		"trailing byte":          append(append([]byte(nil), data...), 0),
		"another domain count":   append([]byte(publicationMagic+"\x05"), data[5:]...),
		"overlong task count":    append([]byte(publicationMagic+"\x04\x83\x00"), data[6:]...),
		"task count of 2^63":     binary.AppendUvarint([]byte(publicationMagic+"\x04"), 1<<63),
		"task count over bytes":  append([]byte(publicationMagic), 4, 200, 1),
		"zero-bits entry":        one(cat([]byte{1}, entry(1, 0))...),
		"descending indexes":     one(cat([]byte{2}, entry(3, 0.5), entry(1, 0.5))...),
		"repeated index":         one(cat([]byte{2}, entry(1, 0.5), entry(1, 0.5))...),
		"index past m":           one(cat([]byte{1}, entry(4, 1))...),
		"entry count over bytes": one(cat([]byte{5}, entry(0, 1), entry(1, 1), entry(2, 1), entry(3, 1))...),
		"float cut short":        one(cat([]byte{1, 1}, bits(1)[:7])...),
		"no table":               one(),
		"ID below zero":          cat([]byte(publicationMagic), []byte{4, 1, 1, 0, 0, 0, 0, 0, 0}),
		"ID past int": cat([]byte(publicationMagic), []byte{4, 2}, binary.AppendUvarint(nil, zigzag(math.MaxInt)),
			[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
		"magic only":           []byte(publicationMagic),
		"a later format":       append([]byte("DPC5"), data[4:]...),
		"DPC1 body under DPB2": append([]byte("DPB2"), data[4:]...),
		"DPC1 body under DPC3": append([]byte("DPC3"), data[4:]...),
		"DPC1 body under DPC4": append([]byte(deflateMagic), data[4:]...),
		"empty":                nil,
	} {
		if tasks, err := decodeTasks(wal.Record{Seq: 3, Blob: blob}, 4); err == nil {
			t.Errorf("%s: decoded to %d tasks", name, len(tasks))
		} else if !strings.HasPrefix(err.Error(), "publish record 3: ") {
			t.Errorf("%s: error %q does not name the publish record", name, err)
		}
	}
}

// TestPackedPublicationRefusals: each DPC1 and DPC4 rule refuses its own
// row with its own error, and a DPC4 record is accepted by its body, not by
// its stream's spelling. The body rows damage twinTasks' DPC1 blob, whose
// columns lie at known offsets (one-byte IDs and refs, four table
// entries), and each is refused as such unpacked and, packed, by the same
// rule. A row-major blob, unpacked or packed, and a DPC3 one are refused
// naming the last commit that reads them. Every other stream
// compress/flate reads back to the body is accepted when the record is
// shorter than the DPC1 blob, and decodes to the DPC1 blob's task table
// byte for byte: the writer's tokens in the fixed codes (DPC3's stream)
// under DPC4, a complete but different tree, an untrimmed HLIT, lengths
// spelled without 16, 17 and 18, two blocks split in the middle, a match
// cut short, ones in the padding bits (twinTasks' stream has some), and
// compress/flate's own writer at four levels; a block after the first
// token and a stored block are longer than the DPC1 blob and refused as
// such. A body of over 16,384 tokens in blocks a token shorter or longer
// is accepted too.
func TestPackedPublicationRefusals(t *testing.T) {
	random := mustEncodeBinaryPublication(t, randomTextTasks(5), 4)
	randomBody := random[len(publicationMagic):]
	twins := twinTasks()
	dpc1 := mustEncodeBinaryPublication(t, twins, 4)
	body := dpc1[len(publicationMagic):]
	n := uint64(len(body))
	stream := deflateStream(body)
	valid := packedBlob(deflateMagic, n, stream)
	if !bytes.Equal(valid, packPublication(dpc1)) {
		t.Fatal("the hand-assembled blob is not the record the writer logs")
	}
	if _, err := decodePublication(wal.Record{Blob: valid}, 4); err != nil {
		t.Fatalf("the valid blob does not decode: %v", err)
	}
	// twinTasks' distinct vectors in order of first appearance, and their refs.
	var table [][]byte
	for _, i := range []int{0, 1, 3, 5} {
		e, err := appendVector(nil, new(wal.SparseFloats), twins[i].Domain, 4)
		if err != nil {
			t.Fatal(err)
		}
		table = append(table, e)
	}
	tableAt := len(dpc1) - len(cat(table...))
	refsAt := tableAt - len(twins)
	textsAt := len(publicationMagic) + 2 + len(twins)
	if !bytes.Equal(dpc1[refsAt:tableAt], []byte{0, 1, 0, 2, 1, 3, 2}) || string(dpc1[textsAt:textsAt+5]) != "twin\x00" {
		t.Fatalf("twinTasks' columns are not where the rows expect them: %x", dpc1)
	}
	withRefs := func(refs ...byte) []byte { return cat(dpc1[:refsAt], refs, dpc1[tableAt:]) }
	withText := func(text string) []byte { return cat(dpc1[:textsAt], []byte(text), dpc1[textsAt+5:]) }
	row := encodeRowPublication(twins, 4)
	for name, r := range map[string]struct {
		blob []byte
		want string
	}{
		"a bad escape":                    {withText("t\x01\x03n\x00"), "bad escape"},
		"an escape cut by its terminator": {withText("twi\x01\x00"), "bad escape"},
		"a string with no terminator":     {cat(dpc1[:textsAt], []byte(strings.Repeat("twin", 30))), "no terminator"},
		"a ref above the table so far":    {withRefs(0, 1, 0, 3, 1, 3, 2), "names vector 3 of 2"},
		"two byte-equal table entries":    {cat(dpc1[:tableAt], table[0], table[1], table[0], table[3]), "vector 2 repeats an earlier one"},
		"another domain count":            {cat(dpc1[:4], []byte{5}, dpc1[5:]), "publication has 5 domains, want 4"},
		"a byte after the last column":    {cat(dpc1, []byte{0}), "1 trailing bytes"},
		"a row-major blob":                {row, "7137417"},
		"a row-major blob, packed":        {packedBlob("DPB3", uint64(len(row)-4), deflateStream(row[4:])), "7137417"},
		"a DPC3 record":                   {packedBlob("DPC3", n, fixedCodes(body)), "0b7dcec"},
		"a block after the first token":   {packedBlob(deflateMagic, n, respelled(body, 1, spelling{})), "no shorter than"},
		"a stored block":                  {packedBlob(deflateMagic, n, stored(body)), "no shorter than"},
		"no shorter than the DPC1 blob":   {packedBlob(deflateMagic, uint64(len(randomBody)), deflateStream(randomBody)), "no shorter than"},
		"stated body over what one holds": {packedBlob(deflateMagic, uint64(maxPackedBody)+1, stream), "over the"},
		"stated body one byte short":      {packedBlob(deflateMagic, n-1, stream), "inflates past"},
		"stated body one byte long":       {packedBlob(deflateMagic, n+1, stream), "inflates to"},
		"a byte after the stream":         {append(append([]byte(nil), valid...), 0), "follow the packed body's final block"},
		"a stream cut before its end":     {valid[:len(valid)-1], "unexpected EOF"},
		"no body length":                  {[]byte(deflateMagic), "bad varint"},
	} {
		forms := [][]byte{r.blob}
		if bytes.HasPrefix(r.blob, []byte(publicationMagic)) {
			packed := packPublication(r.blob)
			if !bytes.HasPrefix(packed, []byte(deflateMagic)) {
				t.Fatalf("%s: the damaged body does not pack shorter", name)
			}
			forms = append(forms, packed)
		}
		for _, blob := range forms {
			_, err := decodePublication(wal.Record{Seq: 5, Blob: blob}, 4)
			if err == nil || !strings.HasPrefix(err.Error(), "publish record 5: ") || !strings.Contains(err.Error(), r.want) {
				t.Errorf("%s as %q: error %v, want one naming publish record 5 and containing %q", name, blob[:4], err, r.want)
			}
		}
	}

	spellings := map[string][]byte{
		"the fixed codes":                fixedCodes(body),
		"a complete but different tree":  respelled(body, 16384, spelling{swap: true}),
		"an untrimmed HLIT":              respelled(body, 16384, spelling{fullHLIT: true}),
		"lengths without 16, 17 and 18":  respelled(body, 16384, spelling{noRuns: true}),
		"two blocks split in the middle": respelled(body, len(referenceTokens(body))/2, spelling{}),
		"a match cut short":              shorterMatch(t, body),
		"ones in the padding bits":       paddedWithOnes(t, stream, paddingBits(body)),
	}
	for _, level := range []int{flate.HuffmanOnly, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression} {
		spellings[fmt.Sprintf("compress/flate at level %d", level)] = flateStream(t, body, level)
	}
	want, err := decodePublication(wal.Record{Blob: dpc1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, stream := range spellings {
		acceptedAs(t, name, packedBlob(deflateMagic, n, stream), body, want)
	}
	// A body of over 16,384 tokens in blocks a token shorter or longer.
	big := mustEncodeBinaryPublication(t, randomTextTasks(40), 4)
	if want, err = decodePublication(wal.Record{Blob: big}, 4); err != nil {
		t.Fatal(err)
	}
	bigBody := big[len(publicationMagic):]
	for _, every := range []int{16383, 16385} {
		blob := packedBlob(deflateMagic, uint64(len(bigBody)), respelled(bigBody, every, spelling{}))
		acceptedAs(t, fmt.Sprintf("blocks of %d tokens", every), blob, bigBody, want)
	}
}

// acceptedAs holds a DPC4 record that spells body otherwise than the pinned
// writer to the acceptance rule: compress/flate reads its stream back to
// body, it is shorter than the DPC1 blob, and it decodes to want's task
// table byte for byte.
func acceptedAs(t *testing.T, name string, blob, body []byte, want *publication) {
	t.Helper()
	stream := blob[len(deflateMagic)+uvarintLen(uint64(len(body))):]
	if bytes.Equal(stream, deflateStream(body)) {
		t.Fatalf("%s: the stream is the pinned writer's", name)
	}
	if !bytes.Equal(inflate(t, stream), body) {
		t.Fatalf("%s: compress/flate does not read the stream back to the body", name)
	}
	if len(blob) >= len(publicationMagic)+len(body) {
		t.Fatalf("%s: the record is %d bytes, no shorter than the %d-byte DPC1 blob", name, len(blob), len(publicationMagic)+len(body))
	}
	got, err := decodePublication(wal.Record{Seq: 5, Blob: blob}, 4)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !sameTable(got, want) {
		t.Errorf("%s: decodes to a task table other than the DPC1 blob's", name)
	}
}

// sameTable reports whether two decoded publications hold one task table
// byte for byte: the slab, its offset and truth columns, the ID order, the
// ref column's place and the vectors, compared as bits.
func sameTable(got, want *publication) bool {
	if !reflect.DeepEqual(got.taskTable, want.taskTable) || !reflect.DeepEqual(got.taskOrder, want.taskOrder) ||
		got.refs != want.refs || len(got.vectors) != len(want.vectors) {
		return false
	}
	for e, v := range want.vectors {
		if !slices.EqualFunc(got.vectors[e], v, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return false
		}
	}
	return true
}

// TestPublicationCodecConcurrent: campaigns publish, wake and run snapshot
// passes at once, and every packing draws on the one pool of DEFLATE
// writers and every unpacking on the one pool of flate readers. Goroutines encoding and
// decoding different task sets must each get their own bytes back (run it
// under -race).
func TestPublicationCodecConcurrent(t *testing.T) {
	sets := [][]*model.Task{sampleTasks(), goldenPublication(200), randomTextTasks(20)}
	ms := []int{4, 26, 4}
	want := make([][]byte, len(sets))
	for i, tasks := range sets {
		want[i] = mustEncodePublication(t, tasks, ms[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(sets)
				blob, err := encodePublication(sets[i], ms[i])
				if err != nil || !bytes.Equal(blob, want[i]) {
					t.Errorf("goroutine %d: set %d encoded to %d bytes (%v), want %d", g, i, len(blob), err, len(want[i]))
					return
				}
				got, err := decodeTasks(wal.Record{Seq: 1, Blob: blob}, ms[i])
				if err != nil || len(got) != len(sets[i]) {
					t.Errorf("goroutine %d: set %d decoded from %q to %d tasks (%v)", g, i, blob[:4], len(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var updatePublicationGolden = flag.Bool("update-publication-golden", false,
	"rewrite testdata/publication_dpc4.golden from this build's writer")

// goldenPublication is n tasks in the campaigns' shape: a few sentence
// templates, two or three choices, one- and two-domain vectors. It is built
// here rather than taken from a dataset after DVE, so only the codec can
// move its bytes.
func goldenPublication(n int) []*model.Task {
	things := []string{"the Amazon", "Mount Everest", "the Nile", "Lake Baikal", "the Sahara", "Kobe Bryant", "Shaquille O'Neal", "the Eiffel Tower"}
	templates := []string{"Q%d. Is %s older than %s?", "Q%d. Which is larger, %s or %s?", "Q%d. Did %s appear in more headlines than %s last year?"}
	tasks := make([]*model.Task, n)
	for i := range tasks {
		a, b := things[i%len(things)], things[(i*3+1)%len(things)]
		tk := &model.Task{ID: 3 * i, Text: fmt.Sprintf(templates[i%len(templates)], 1000+i*7, a, b),
			Choices: []string{a, b}, Domain: make(model.DomainVector, 26), Truth: model.NoTruth, TrueDomain: i % 26}
		if i%4 == 0 {
			tk.Choices = append(tk.Choices, "neither")
		}
		if i%2 == 0 {
			tk.Truth = i % len(tk.Choices)
		}
		tk.Domain[i%26] = 0.75
		tk.Domain[(i*5+3)%26] += 0.25
		tasks[i] = tk
	}
	return tasks
}

// TestPublicationPackerGolden pins the packer. testdata/
// publication_dpc4.golden is the DPC4 record of goldenPublication(600), a
// body over the writer's 32 KiB window: this build must write it byte for
// byte — the writer's rules, not a toolchain, fix it — and read it back to
// the set. The records older builds logged are refused with an error naming
// their magic and the last commit that reads them: testdata/
// publication_dpc3.golden, the fixed-code DPC3 record of the same set,
// testdata/publication_dpb3.golden, its row-major DPB3 record, and
// testdata/publication_dpb2.golden, the LZW-packed DPB2 record of
// goldenPublication(200). The flag rewrites only the DPC4 file.
func TestPublicationPackerGolden(t *testing.T) {
	path := filepath.Join("testdata", "publication_dpc4.golden")
	tasks := goldenPublication(600)
	dpc1 := mustEncodeBinaryPublication(t, tasks, 26)
	blob := packPublication(dpc1)
	// A body this long wraps the distance ring.
	if len(dpc1)-len(publicationMagic) <= windowSize {
		t.Fatalf("the golden body is %d bytes, within one window", len(dpc1)-len(publicationMagic))
	}
	if rec := mustEncodePublication(t, tasks, 26); !bytes.Equal(rec, blob) {
		t.Fatalf("Publish logs %d bytes that differ from the one-pass packing's %d", len(rec), len(blob))
	}
	if *updatePublicationGolden {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(want, []byte(deflateMagic)) {
		t.Fatalf("%s opens with %q, want %q", path, want[:4], deflateMagic)
	}
	if !bytes.Equal(blob, want) {
		t.Fatalf("this build packs the golden set to %d bytes that differ from the %d in %s", len(blob), len(want), path)
	}
	got, err := decodeTasks(wal.Record{Seq: 1, Blob: want}, 26)
	if err != nil {
		t.Fatal(err)
	}
	sameTasks(t, got, tasks)
	t.Logf("%s: %d bytes as DPC4, %d as DPC1", path, len(want), len(dpc1))

	for magic, commit := range map[string]string{"DPC3": "0b7dcec", "DPB3": "7137417", "DPB2": "a3e04fd"} {
		old := readLegacyGolden(t, magic)
		if got, err := decodeTasks(wal.Record{Seq: 1, Blob: old}, 26); err == nil || !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), commit) {
			t.Fatalf("the %s record decoded to %d tasks (%v), want a refusal naming %s and %s", magic, len(got), err, magic, commit)
		}
	}
}

// readLegacyGolden returns testdata/publication_<magic>.golden, a
// publication as an older build logged it under magic: DEFLATE-packed in
// the fixed codes under DPC3, row-major and so packed under DPB3, or
// LZW-packed under DPB2.
func readLegacyGolden(t testing.TB, magic string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "publication_"+strings.ToLower(magic)+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte(magic)) {
		t.Fatalf("publication_%s.golden opens with %q", strings.ToLower(magic), blob[:4])
	}
	return blob
}

// FuzzPublicationDecode drives arbitrary bytes through the one reader of a
// publish record, which every boot, wake and snapshot pass runs; an
// accepted blob's tasks share a vector exactly when their encodings are
// equal. Seed corpus in testdata/fuzz/FuzzPublicationDecode (checked in):
// sampleTasks' DPC1 blob, the same cut in its middle, escapedTasks' DPC1
// blob, twinTasks' with a ref above the table so far and with a repeated
// table entry; sampleTasks' DPC4 record, the same cut in its stream and
// with a byte after the final block, and the same record as compress/flate's
// writer spells it (dpc4-stdlib). The older builds' records there must
// all be refused: sampleTasks' fixed-code DPC3 record, the same cut in its
// stream and with a byte after the final block; its row-major DPB1 blob,
// the same cut at three points, with one byte flipped, with its task count
// set to 2^63; its DPB3 record, the same cut in its stream and with a byte
// after the final block; its LZW-packed DPB2 record, the same cut in its
// stream, with a byte after the end code, and with the stream every byte a
// literal; twinTasks' DPB1 blob; and a JSON publication, the format v0 blob
// nothing reads.
func FuzzPublicationDecode(f *testing.F) {
	f.Add(mustEncodeBinaryPublication(f, sampleTasks(), 4))
	f.Add(mustEncodeBinaryPublication(f, twinTasks(), 4))
	f.Add(readLegacyGolden(f, "DPB2"))
	f.Add([]byte(publicationMagic))
	f.Add([]byte("DPB2"))
	f.Add([]byte(`[{"ID":1,"Choices":["a","b"],"Domain":[0,1,0,0],"Truth":-1,"TrueDomain":-1}]`))
	f.Add(mustEncodePublication(f, sampleTasks(), 4))
	f.Add([]byte(deflateMagic))
	f.Add(mustEncodeBinaryPublication(f, escapedTasks(), 4))
	f.Add(encodeRowPublication(sampleTasks(), 4))
	f.Add([]byte("DPB3"))
	f.Add(readLegacyGolden(f, "DPC3"))
	refusals := map[string]error{"DPB1": errFormatRows, "DPB2": errFormatLZW, "DPB3": errFormatRows, "DPC3": errFormatFixed}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPublicationDecode(t, data, 4)
		for magic, refusal := range refusals {
			if bytes.HasPrefix(data, []byte(magic)) {
				if _, err := decodePublication(wal.Record{Blob: data}, 4); !errors.Is(err, refusal) {
					t.Fatalf("a %s blob is refused with %v, want %v", magic, err, refusal)
				}
			}
		}
	})
}

// TestPublicationBytesPerTask pins what a published task costs on disk:
// the record's size over the first 200 tasks of each of the four datasets,
// after DVE, and the DPC1 blob it packs. Both are counts — the same on
// every machine — and the numbers docs/architecture.md's cost model
// quotes; the row-major DPB1 blob and the JSON encoding before it are
// logged beside them.
func TestPublicationBytesPerTask(t *testing.T) {
	want := map[string][2]int{"Item": {17831, 2990}, "4D": {19216, 2949}, "QA": {18838, 2565}, "SFV": {12413, 3376}}
	names, sets, m := datasetPublications(t)
	for i, tasks := range sets {
		name := names[i]
		dpc1 := mustEncodeBinaryPublication(t, tasks, m)
		blob := mustEncodePublication(t, tasks, m)
		text, nnz := 0, 0
		for _, tk := range tasks {
			text += len(tk.Text)
			for _, c := range tk.Choices {
				text += len(c)
			}
			for _, x := range tk.Domain {
				if math.Float64bits(x) != 0 {
					nnz++
				}
			}
		}
		legacy, err := json.Marshal(tasks)
		if err != nil {
			t.Fatal(err)
		}
		rows := encodeRowPublication(tasks, m)
		t.Logf("%-4s %6d B = %5.1f B a task as %s, %6d B = %5.1f as DPC1 (text and choices %5.1f, %.2f non-zero domains); as DPB1 %6d B = %5.1f, as JSON %6d B = %5.1f",
			name, len(blob), float64(len(blob))/200, blob[:4], len(dpc1), float64(len(dpc1))/200,
			float64(text)/200, float64(nnz)/200, len(rows), float64(len(rows))/200, len(legacy), float64(len(legacy))/200)
		if got := [2]int{len(dpc1), len(blob)}; got != want[name] {
			t.Errorf("%s: 200 tasks encode to %d bytes as DPC1 and are logged in %d, pinned %d and %d",
				name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// TestAllocsPublicationCodecPooled: the DEFLATE writer's tables and token
// block (145 KiB) and compress/flate's reader (its 32 KiB window and
// decoding tables) are pooled, so once the pools are warm a pack and a
// decode of sampleTasks allocate only what the publication itself needs:
// ≈2,030 B in 30 allocations, pinned at 4 KiB and 32 (room for another
// toolchain's maps), where one writer's tables or one reader's window alone
// is eight times the bytes.
func TestAllocsPublicationCodecPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const maxBytes, maxAllocs = 4 << 10, 32
	tasks := sampleTasks()
	codec := func() {
		blob, err := encodePublication(tasks, 4)
		if err != nil || !bytes.HasPrefix(blob, []byte(deflateMagic)) {
			t.Fatalf("sampleTasks packs to %q (%v), want a DPC4 record", blob, err)
		}
		if _, err := decodePublication(wal.Record{Blob: blob}, 4); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	// A pool keeps what one P put for that P: a goroutine moved to another
	// P between a put and the next get misses it, and one miss of a 145 KiB
	// writer costs more over the runs than the bound allows.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	codec()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		codec()
	}
	runtime.ReadMemStats(&after)
	perBytes := (after.TotalAlloc - before.TotalAlloc) / runs
	perAllocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("a pack and a decode of sampleTasks: %d B, %d allocations (writer tables %d B)",
		perBytes, perAllocs, unsafe.Sizeof(deflater{}))
	if perBytes > maxBytes || perAllocs > maxAllocs {
		t.Errorf("a warm pack and decode allocate %d B in %d allocations, want at most %d B and %d",
			perBytes, perAllocs, maxBytes, maxAllocs)
	}
}

// --- logs on disk ---

// writePublishLog writes a log whose one record publishes blob.
func writePublishLog(t *testing.T, dir string, blob []byte) {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(wal.Record{Kind: wal.KindPublish, Blob: blob}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyPublicationLogsBoot: builds up to 0b7dcec packed a publication
// in one fixed-code block as DPC3, builds up to 7137417 logged it
// row-major, as DPB1 or DEFLATE-packed as DPB3, and builds before the
// pinned writer LZW-packed it as DPB2; this build reads none of them. A log
// whose publish record is the DPC1 blob, or its DPC4 packing as
// compress/flate's writer spells it, followed by the answers of a log the
// pinned writer packed, boots to that log's Fingerprint. A log whose
// publish record is DPC3
// (the same tokens in the fixed codes, as 0b7dcec wrote them) is refused
// with an error naming DPC3 and 0b7dcec, one whose record is DPB1 (the row
// encoder's) or DPB3 (publication_dpb3.golden) naming its magic and
// 7137417, one whose record is DPB2 naming a3e04fd, and each is left byte
// for byte as it was.
func TestLegacyPublicationLogsBoot(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	dir := t.TempDir()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	tasks := datasetTasks(5 * publishChunk)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	tasks = publishedTasks(s) // with the vectors DVE gave them
	for i := 0; i < 200; i++ {
		if err := s.Submit(fmt.Sprintf("w%d", i%7), i*13%len(tasks), i%2); err != nil {
			t.Fatal(err)
		}
	}
	want, m := s.Fingerprint(), s.m
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs := crashtest.ReadStream(t, dir)
	body := mustEncodeBinaryPublication(t, tasks, m)[len(publicationMagic):]
	logs := map[string]struct { // by the record's magic, then who wrote it
		blob    []byte
		refusal string // the last commit that reads the record; "" boots
	}{
		deflateMagic: {recs[0].Blob, ""},
		deflateMagic + " by compress/flate": {packedBlob(deflateMagic, uint64(len(body)),
			flateStream(t, body, flate.DefaultCompression)), ""},
		publicationMagic: {mustEncodeBinaryPublication(t, tasks, m), ""},
		"DPC3":           {packedBlob("DPC3", uint64(len(body)), fixedCodes(body)), "0b7dcec"},
		"DPB1":           {encodeRowPublication(tasks, m), "7137417"},
		"DPB3":           {readLegacyGolden(t, "DPB3"), "7137417"},
		"DPB2":           {readLegacyGolden(t, "DPB2"), "a3e04fd"},
	}
	if bytes.Equal(logs[deflateMagic+" by compress/flate"].blob, recs[0].Blob) {
		t.Fatal("compress/flate spells the record as the pinned writer does")
	}
	for name, l := range logs {
		if !bytes.HasPrefix(l.blob, []byte(name[:4])) {
			t.Fatalf("the %s log's publish record opens with %q", name, l.blob[:4])
		}
		legacy := t.TempDir()
		log, err := wal.Open(legacy, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if i == 0 {
				rec.Blob = l.blob
			}
			if _, err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		before := readLogDir(t, legacy)
		again := newSystem(t, cfg)
		_, err = again.Recover(legacy)
		switch {
		case l.refusal != "" && (err == nil || !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), l.refusal)):
			t.Errorf("%s log: boot: %v, want a refusal naming %s and %s", name, err, name, l.refusal)
		case l.refusal != "":
			if !reflect.DeepEqual(readLogDir(t, legacy), before) {
				t.Errorf("%s log: the refused boot changed the log", name)
			}
		case err != nil:
			t.Fatalf("%s log: boot: %v", name, err)
		case again.Fingerprint() != want:
			t.Errorf("%s log: the booted state differs from the pinned writer's DPC4 log's", name)
		}
		again.Close()
	}
}

// readLogDir maps every file in dir to its bytes.
func readLogDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestReplayedPublicationCarriesDomainVectors: a publish record exists so
// that no boot re-links text, and every task in it carries a vector over
// the m domains its blob is stamped with. A blob stamped with another m —
// packed or not — is therefore a damaged record: replay refuses it, with a
// snapshot beside the log or without one (the snapshot does not hold the
// publication; the boot reads it from its record all the same).
func TestReplayedPublicationCarriesDomainVectors(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	tasks := []*model.Task{{ID: 1, Text: strings.Repeat("ab", 30), Choices: []string{"a", "b"},
		Domain: model.DomainVector{0, 1, 0, 0}, Truth: model.NoTruth, TrueDomain: model.NoTruth}}
	packed := mustEncodePublication(t, tasks, 4)
	if !bytes.HasPrefix(packed, []byte(deflateMagic)) {
		t.Fatalf("the publication packs to %q, want a packed record", packed[:4])
	}
	for name, blob := range map[string][]byte{
		"DPC1 over 4 domains": mustEncodeBinaryPublication(t, tasks, 4),
		"DPC4 over 4 domains": packed,
	} {
		dir := t.TempDir()
		writePublishLog(t, dir, blob)

		s := newSystem(t, cfg)
		_, err := s.Recover(dir)
		if err == nil || !strings.Contains(err.Error(), "publish record 1") || !strings.Contains(err.Error(), "4 domains") {
			t.Fatalf("%s: replay: %v, want an error naming publish record 1 and its 4 domains", name, err)
		}
		if s.Published() {
			t.Fatalf("%s: a refused publication left the campaign published", name)
		}
		s.Close()

		if err := snapshot.Write(dir, &snapshot.State{Seq: 1, M: 26}); err != nil {
			t.Fatal(err)
		}
		s = newSystem(t, cfg)
		_, err = s.Recover(dir)
		if err == nil || !strings.Contains(err.Error(), "publish record 1") {
			t.Fatalf("%s: snapshot boot: %v, want an error naming publish record 1", name, err)
		}
		s.Close()
	}

	dir := t.TempDir()
	tasks[0].Domain = make(model.DomainVector, 26)
	tasks[0].Domain[1] = 1
	writePublishLog(t, dir, mustEncodePublication(t, tasks, 26))
	s := newSystem(t, cfg)
	defer s.Close()
	if _, err := s.Recover(dir); err != nil || !s.Published() {
		t.Fatalf("the same publication over 26 domains: published %v, error %v", s.Published(), err)
	}
}

// --- writes the next boot would reject ---

// TestPublishRejectsNegativeTaskID: a negative ID used to be accepted,
// logged as its two's complement and acknowledged — and the answer record
// for it was then unreadable (the record decoder: task out of int range),
// so the campaign never booted again. It is a validation error now, the campaign
// stays re-publishable, and what is acknowledged replays.
func TestPublishRejectsNegativeTaskID(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	dir := t.TempDir()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	tasks := indexTasks(2, s.m)
	tasks[0].ID, tasks[1].ID = -1, 2
	if _, err := CheckTasks(tasks, s.m); err == nil {
		t.Error("CheckTasks accepted task ID -1")
	}
	err := s.Publish(tasks)
	if err == nil || errors.Is(err, ErrDurability) {
		t.Fatalf("Publish with task ID -1: %v, want a validation error", err)
	}
	if s.Published() || s.Stats().WALLastSeq != 0 {
		t.Fatalf("rejected publish left published=%v, WAL seq %d", s.Published(), s.Stats().WALLastSeq)
	}
	if err := s.Submit("w", -1, 0); err == nil {
		t.Fatal("Submit to task -1 accepted")
	}
	tasks[0].ID = 1
	if err := s.Publish(tasks); err != nil {
		t.Fatalf("re-publish with the ID fixed: %v", err)
	}
	if err := s.Submit("w", 1, 0); err != nil {
		t.Fatal(err)
	}
	want := s.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	again := newSystem(t, cfg)
	defer again.Close()
	if _, err := again.Recover(dir); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if again.Fingerprint() != want {
		t.Fatal("rebooted state differs")
	}
}

// TestLargePublicationBoots: 100,000 two-choice tasks. As JSON the publish
// blob was over wal.MaxPayload (26 decimal floats a task; 20.7 MB even over
// the two domains used here to keep the fingerprints small), which the
// write side never checked — so the campaign published, took answers, and
// was read back as corruption at the next boot. The DPC1 blob fits
// unpacked — the size check does not lean on packing — and the reboot is
// the live state.
func TestLargePublicationBoots(t *testing.T) {
	cfg := Config{KB: kb.New(model.MustDomainSet([]string{"fauna", "flora"})),
		GoldenCount: -1, RerunEvery: -1}
	dir := t.TempDir()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	tasks := concTasks(s.m, 100_000)
	for _, tk := range tasks {
		tk.Text = fmt.Sprintf("Photo %06d of the survey: is the animal or plant nearest the centre of the frame native to the island it was taken on?", tk.ID)
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("w", 99_999, 1); err != nil {
		t.Fatal(err)
	}
	want := s.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if dpc1 := mustEncodeBinaryPublication(t, tasks, s.m); len(dpc1) < 12<<20 {
		t.Fatalf("the DPC1 blob is %d bytes; the case needs one a JSON encoding pushes past %d", len(dpc1), wal.MaxPayload)
	}
	again := newSystem(t, cfg)
	defer again.Close()
	if _, err := again.Recover(dir); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if again.Fingerprint() != want {
		t.Fatal("rebooted state differs from the live state")
	}
}

// TestOversizePublicationRejected: a publication whose blob no log record
// can hold is refused before anything is installed or written — a
// validation error, not a durability failure — and a smaller publication
// then succeeds and survives a reboot.
func TestOversizePublicationRejected(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	dir := t.TempDir()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	tasks := indexTasks(5, s.m)
	long := strings.Repeat("a very long task description ", (4<<20)/29)
	for _, tk := range tasks {
		tk.Text = long
	}
	err := s.Publish(tasks)
	if err == nil || errors.Is(err, ErrDurability) {
		t.Fatalf("Publish of a %d-byte publication: %v, want a validation error", 5*len(long), err)
	}
	if s.Published() || s.Stats().OpenTasks != 0 || s.wal.ReservedSeq() != 0 {
		t.Fatalf("rejected publish left published=%v, %d open tasks, reserved seq %d",
			s.Published(), s.Stats().OpenTasks, s.wal.ReservedSeq())
	}
	for _, tk := range tasks {
		tk.Text = "short"
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatalf("re-publish, smaller: %v", err)
	}
	if err := s.Submit("w", 0, 0); err != nil {
		t.Fatal(err)
	}
	want := s.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(filepath.Join(dir, "0000000000000001.wal")); err != nil || info.Size() > 1<<10 {
		t.Fatalf("log after the refusal and the small publication: %v, %v", info, err)
	}
	again := newSystem(t, cfg)
	defer again.Close()
	if _, err := again.Recover(dir); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if again.Fingerprint() != want {
		t.Fatal("rebooted state differs")
	}
}

// TestReplayRefusesAVectorNoDistribution: the rerun trusts every task's
// domain vector to be a distribution over m domains (truth.InferIndex
// checks none), so nothing reaches the engine from a log without that
// check. A publish record whose table holds a vector summing to 0.5 is
// refused at boot, naming the record and the task that shares it.
func TestReplayRefusesAVectorNoDistribution(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	m := newSystem(t, cfg).m
	tasks := indexTasks(8, m)
	tasks[3].Domain = make(model.DomainVector, m)
	tasks[3].Domain[1] = 0.5
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(wal.Record{Kind: wal.KindPublish, Blob: mustEncodePublication(t, tasks, m)}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	s := newSystem(t, cfg)
	defer s.Close()
	_, err = s.Recover(dir)
	if err == nil || !strings.Contains(err.Error(), "publish record 1") || !strings.Contains(err.Error(), "task 3") || !strings.Contains(err.Error(), "sum to 0.5") {
		t.Fatalf("boot over a vector summing to 0.5: %v, want a refusal naming publish record 1 and task 3", err)
	}
}
