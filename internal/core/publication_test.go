package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func mustEncodePublication(t testing.TB, tasks []*model.Task, m int) []byte {
	t.Helper()
	blob, err := encodePublication(tasks, m)
	if err != nil {
		t.Fatal(err)
	}
	return blob
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
// text, NoTruth and set truths, over several domain counts — decode to the
// same tasks field by field (floats compared as bits), and the encoding is
// canonical: encode(decode(b)) == b.
func TestPropertyPublicationRoundTrip(t *testing.T) {
	r := mathx.NewRand(24)
	odd := []float64{math.Copysign(0, -1), math.Float64frombits(1), math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.MaxFloat64, 1 - 1e-16}
	for round := 0; round < 200; round++ {
		m := []int{1, 4, 26}[r.Intn(3)]
		tasks := make([]*model.Task, r.Intn(20))
		for i := range tasks {
			tk := &model.Task{ID: r.Intn(1 << uint(1+r.Intn(40))), Truth: model.NoTruth, TrueDomain: model.NoTruth}
			tk.Text = strings.Repeat("tëxt ", r.Intn(4))
			tk.Choices = make([]string, r.Intn(5))
			for c := range tk.Choices {
				tk.Choices[c] = strings.Repeat("c", r.Intn(3))
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
		blob := mustEncodePublication(t, tasks, m)
		got, err := decodePublication(wal.Record{Seq: 1, Blob: blob}, m)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sameTasks(t, got, tasks)
		if again := mustEncodePublication(t, got, m); !bytes.Equal(again, blob) {
			t.Fatalf("round %d: re-encoding differs:\n in  %x\n out %x", round, blob, again)
		}
	}
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
// codec's contract: an error, or tasks that all carry an m-long vector,
// were not allocated beyond what the input's length bounds, and — for a
// binary blob — re-encode to exactly the input.
func checkPublicationDecode(t *testing.T, data []byte, m int) {
	t.Helper()
	tasks, err := decodePublication(wal.Record{Seq: 9, Blob: data}, m)
	if err != nil {
		if tasks != nil || !strings.HasPrefix(err.Error(), "publish record 9: ") {
			t.Fatalf("rejection returned %d tasks, error %v", len(tasks), err)
		}
		return
	}
	strs := 0
	for _, tk := range tasks {
		if len(tk.Domain) != m {
			t.Fatalf("task %d decoded with a %d-long domain vector, want %d", tk.ID, len(tk.Domain), m)
		}
		strs += len(tk.Text) + len(tk.Choices)
		for _, c := range tk.Choices {
			strs += len(c)
		}
	}
	if !bytes.HasPrefix(data, []byte(publicationMagic)) {
		return // legacy JSON: nothing canonical about it
	}
	if len(tasks)*minTaskBytes > len(data) || strs > len(data) {
		t.Fatalf("decoded %d tasks and %d string bytes out of %d bytes", len(tasks), strs, len(data))
	}
	again, err := encodePublication(tasks, m)
	if err != nil {
		t.Fatalf("accepted publication does not re-encode: %v", err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, again)
	}
}

// TestPublicationDecodeDamage is the DOCSSNP3 sweep for the publication
// blob: every single-byte truncation and every single-bit flip of a valid
// blob either decodes to something that re-encodes to those exact bytes or
// errors — it never panics and never over-allocates — and hand-made blobs
// the encoder would not write are all rejected. (Unlike a snapshot the
// blob has no CRC of its own; the WAL frame around it does.)
func TestPublicationDecodeDamage(t *testing.T) {
	data := mustEncodePublication(t, sampleTasks(), 4)
	for cut := 0; cut < len(data); cut++ {
		if tasks, err := decodePublication(wal.Record{Blob: data[:cut]}, 4); err == nil || tasks != nil {
			t.Fatalf("truncated at %d: decoded to %d tasks", cut, len(tasks))
		}
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		checkPublicationDecode(t, flipped, 4)
	}

	one := func(entries ...byte) []byte { // one task, the given domain entries
		b := append([]byte(publicationMagic), 4, 1)
		b = append(b, 7, 0, 0, 0, 0) // id 7, no text, no choices, no truth, no true domain
		return append(b, entries...)
	}
	bits := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	entry := func(k byte, x float64) []byte { return append([]byte{k}, bits(x)...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
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
		"ID past int":            append(binary.AppendUvarint(append([]byte(publicationMagic), 4, 1), 1<<63), 0, 0, 0, 0, 0),
		"magic only":             []byte(publicationMagic),
		"a later format":         append([]byte("DPB2"), data[4:]...),
		"empty":                  nil,
	} {
		if tasks, err := decodePublication(wal.Record{Seq: 3, Blob: blob}, 4); err == nil {
			t.Errorf("%s: decoded to %d tasks", name, len(tasks))
		} else if !strings.HasPrefix(err.Error(), "publish record 3: ") {
			t.Errorf("%s: error %q does not name the publish record", name, err)
		}
	}
}

// FuzzPublicationDecode drives arbitrary bytes through the one reader of a
// publish record, which every boot, wake and snapshot pass runs. Seed
// corpus in testdata/fuzz/FuzzPublicationDecode (checked in): sampleTasks'
// blob, the same cut at three points, with one byte flipped, with its task
// count set to 2^63, and a legacy JSON publication.
func FuzzPublicationDecode(f *testing.F) {
	f.Add(mustEncodePublication(f, sampleTasks(), 4))
	f.Add([]byte(publicationMagic))
	f.Add([]byte(`[{"ID":1,"Choices":["a","b"],"Domain":[0,1,0,0],"Truth":-1,"TrueDomain":-1}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPublicationDecode(t, data, 4)
	})
}

// TestPublicationBytesPerTask pins what a published task costs on disk:
// the blob's size over the first 200 tasks of each of the four datasets,
// after DVE. It is a count — the same on every machine — and the number
// docs/architecture.md's cost model quotes; the JSON encoding it replaced
// is logged beside it for the ratio.
func TestPublicationBytesPerTask(t *testing.T) {
	want := map[string]int{"Item": 21463, "4D": 21188, "QA": 21009, "SFV": 14606}
	for _, ds := range dataset.All(1) {
		s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
		tasks := ds.Tasks[:200]
		if err := s.Publish(tasks); err != nil {
			t.Fatal(err)
		}
		blob := mustEncodePublication(t, tasks, s.m)
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
		t.Logf("%-4s %6d B = %5.1f B a task (text and choices %5.1f, %.2f non-zero domains); as JSON %6d B = %5.1f a task",
			ds.Name, len(blob), float64(len(blob))/200, float64(text)/200, float64(nnz)/200, len(legacy), float64(len(legacy))/200)
		if len(blob) != want[ds.Name] {
			t.Errorf("%s: 200 tasks encode to %d bytes, pinned %d", ds.Name, len(blob), want[ds.Name])
		}
		s.Close()
	}
}

// --- logs on disk ---

// fixtureConfig is the configuration testdata/legacy_wal was written under.
var fixtureConfig = Config{GoldenCount: 3, HITSize: 3, AnswersPerTask: 2, RerunEvery: 10, SnapshotEvery: -1}

// driveFixtureCampaign is the serial campaign testdata/legacy_wal holds:
// five workers take turns until one is offered nothing, answering
// correctly four times in five.
func driveFixtureCampaign(t *testing.T, s *System) {
	t.Helper()
	r := mathx.NewRand(7)
	for i := 0; ; i++ {
		w := fmt.Sprintf("w%d", i%5)
		got, err := s.Request(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			return
		}
		for _, tk := range got {
			c := r.Intn(tk.NumChoices())
			if tk.Truth != model.NoTruth && r.Float64() < 0.8 {
				c = tk.Truth
			}
			if err := s.Submit(w, tk.ID, c); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLegacyPublicationBoots: testdata/legacy_wal is a WAL directory
// written by the commit before the binary publication (f0b84da):
// fixtureConfig, fifteen tasks — three from each dataset linked by DVE, one
// uniform vector, two one-hot — published as a JSON blob, then
// driveFixtureCampaign (24 answers past the golden gauntlet, two rerun
// boundaries). Segments are never deleted, so this build must boot it —
// by full replay and by snapshot plus suffix — to the state of the same
// campaign logged in the current format, and the two logs must differ in
// the publish record alone.
func TestLegacyPublicationBoots(t *testing.T) {
	legacyDir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "legacy_wal"), legacyDir)
	legacyRecs := readStream(t, legacyDir)
	if len(legacyRecs) == 0 || legacyRecs[0].Kind != wal.KindPublish || legacyRecs[0].Blob[0] != '[' {
		t.Fatal("fixture does not open with a JSON publish record")
	}

	legacy := newSystem(t, fixtureConfig)
	if _, err := legacy.Recover(legacyDir); err != nil {
		t.Fatalf("booting the legacy log: %v", err)
	}
	want := legacy.Fingerprint()
	if legacy.reruns.Load() < 1 {
		t.Fatal("fixture crosses no rerun boundary")
	}
	if err := legacy.Close(); err != nil {
		t.Fatal(err)
	}

	// The same campaign, logged by this build.
	tasks, err := decodePublication(legacyRecs[0], legacy.m)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	live := newSystem(t, fixtureConfig)
	if _, err := live.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := live.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	driveFixtureCampaign(t, live)
	if got := live.Fingerprint(); got != want {
		t.Fatalf("legacy boot differs from the live campaign:\n%s", reportDiff(t, "legacy-vs-live", want, got))
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readStream(t, dir)
	if len(recs) != len(legacyRecs) {
		t.Fatalf("this build logged %d records, the fixture holds %d", len(recs), len(legacyRecs))
	}
	if !bytes.HasPrefix(recs[0].Blob, []byte(publicationMagic)) {
		t.Fatalf("publish record opens with %q, want %q", recs[0].Blob[:4], publicationMagic)
	}
	t.Logf("publish blob: %d bytes as JSON, %d in %s", len(legacyRecs[0].Blob), len(recs[0].Blob), publicationMagic)
	for i := 1; i < len(recs); i++ {
		if !bytes.Equal(recs[i].Encode(), legacyRecs[i].Encode()) {
			t.Fatalf("record %d differs between the two logs", recs[i].Seq)
		}
	}

	// Both logs, both recovery rungs. The snapshot covers a prefix ending
	// between the two rerun boundaries, so the restore reads the publish
	// record through readPublication and the suffix replays a rerun.
	covered := len(recs) - 8
	for name, d := range map[string]string{"legacy": legacyDir, "current": dir} {
		stream := legacyRecs
		if d == dir {
			stream = recs
		}
		full := newSystem(t, fixtureConfig)
		if info, err := full.Recover(d); err != nil || info.SnapshotUsed {
			t.Fatalf("%s full replay: %+v, %v", name, info, err)
		}
		if got := full.Fingerprint(); got != want {
			t.Fatalf("%s full replay differs:\n%s", name, reportDiff(t, name+"-full", want, got))
		}
		if err := full.Close(); err != nil {
			t.Fatal(err)
		}
		writeStateAt(t, fixtureConfig, d, stream, covered)
		snap := newSystem(t, fixtureConfig)
		info, err := snap.Recover(d)
		if err != nil || !info.SnapshotUsed || info.Records != len(stream)-covered {
			t.Fatalf("%s snapshot boot: %+v, %v", name, info, err)
		}
		if got := snap.Fingerprint(); got != want {
			t.Fatalf("%s snapshot boot differs:\n%s", name, reportDiff(t, name+"-snapshot", want, got))
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyReaderRefusesBinaryPublication: a build from before this
// format reads a publish blob with the JSON branch alone. Fed a binary
// blob it fails at the first byte — the boot stops with an error naming
// the publish record — and cannot misparse it into some other task set.
func TestLegacyReaderRefusesBinaryPublication(t *testing.T) {
	blob := mustEncodePublication(t, sampleTasks(), 4)
	tasks, err := decodeLegacyPublication(blob, 4)
	if err == nil || tasks != nil {
		t.Fatalf("the JSON reader took a binary blob: %d tasks, error %v", len(tasks), err)
	}
	var syn *json.SyntaxError
	if !errors.As(err, &syn) || syn.Offset != 1 {
		t.Fatalf("want a JSON syntax error at the first byte, got %v", err)
	}
}

// writeLegacyLog writes a log whose publish record is the given JSON.
func writeLegacyLog(t *testing.T, dir, publication string) {
	t.Helper()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(wal.Record{Kind: wal.KindPublish, Blob: []byte(publication)}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayedPublicationCarriesDomainVectors: a publish record exists so
// that no boot re-links text. A replayed task without its m-long vector is
// therefore a damaged record to both of the record's readers — replay used
// to re-run DVE on it silently while the snapshot restore rejected it.
func TestReplayedPublicationCarriesDomainVectors(t *testing.T) {
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	good := `{"ID":0,"Text":"NBA","Choices":["a","b"],"Domain":[1` + strings.Repeat(",0", 25) + `],"Truth":-1,"TrueDomain":-1}`
	for name, bad := range map[string]string{
		"null vector":  `{"ID":1,"Text":"NBA","Choices":["a","b"],"Domain":null,"Truth":-1,"TrueDomain":-1}`,
		"short vector": `{"ID":1,"Text":"NBA","Choices":["a","b"],"Domain":[1,0],"Truth":-1,"TrueDomain":-1}`,
		"null task":    `null`,
	} {
		dir := t.TempDir()
		writeLegacyLog(t, dir, "["+good+","+bad+"]")

		s := newSystem(t, cfg)
		_, err := s.Recover(dir)
		if err == nil || !strings.Contains(err.Error(), "publish record 1") {
			t.Fatalf("%s: replay: %v, want an error naming publish record 1", name, err)
		}
		if s.Published() {
			t.Fatalf("%s: a refused publication left the campaign published", name)
		}
		s.Close()

		// The same record named by a snapshot: rejected loudly, and the
		// full replay the boot falls back to fails the same way.
		if err := snapshot.Write(dir, &snapshot.State{Seq: 1, PublishSeq: 1, M: 26}); err != nil {
			t.Fatal(err)
		}
		s = newSystem(t, cfg)
		info, err := s.Recover(dir)
		if err == nil || !strings.Contains(info.SnapshotRejected, "publish record 1") {
			t.Fatalf("%s: snapshot boot: rejected %q, error %v", name, info.SnapshotRejected, err)
		}
		s.Close()
	}

	dir := t.TempDir()
	writeLegacyLog(t, dir, "["+good+"]")
	s := newSystem(t, cfg)
	defer s.Close()
	if _, err := s.Recover(dir); err != nil || !s.Published() {
		t.Fatalf("a well-formed legacy publication: published %v, error %v", s.Published(), err)
	}
}

// --- writes the next boot would reject ---

// TestPublishRejectsNegativeTaskID: a negative ID used to be accepted,
// logged as its two's complement and acknowledged — and the answer record
// for it was then unreadable (wal.Decode: task out of int range), so the
// campaign never booted again. It is a validation error now, the campaign
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
	if err := ValidateTasks(tasks, s.m); err == nil {
		t.Error("ValidateTasks accepted task ID -1")
	}
	err := s.Publish(tasks)
	if err == nil || errors.Is(err, ErrDurability) {
		t.Fatalf("Publish with task ID -1: %v, want a validation error", err)
	}
	if s.Published() || s.WALSeq() != 0 {
		t.Fatalf("rejected publish left published=%v, WAL seq %d", s.Published(), s.WALSeq())
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
// was read back as corruption at the next boot. The binary blob fits, and
// the reboot is the live state.
func TestLargePublicationBoots(t *testing.T) {
	cfg := Config{KB: kb.New(model.MustDomainSet([]string{"fauna", "flora"})),
		GoldenCount: -1, RerunEvery: -1, SnapshotEvery: -1}
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
	if blob := readStream(t, dir)[0].Blob; len(blob) < 12<<20 {
		t.Fatalf("publish blob is %d bytes; the case needs one a JSON encoding pushes past %d", len(blob), wal.MaxPayload)
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
	if s.Published() || s.OpenTasks() != 0 || s.wal.ReservedSeq() != 0 {
		t.Fatalf("rejected publish left published=%v, %d open tasks, reserved seq %d",
			s.Published(), s.OpenTasks(), s.wal.ReservedSeq())
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
