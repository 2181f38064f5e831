package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"docs/internal/model"
	"docs/internal/wal"
)

// publishedTasks mints every published task whole from the task table —
// ID, text, choices, domain vector, truth and true domain, in publication
// order: the per-task layout the table replaced, kept as the tests' oracle.
func publishedTasks(s *System) []*model.Task {
	pub := s.pub.Load()
	ci := pub.ci
	c := wal.NewCursor(pub.body[pub.truths:])
	out := make([]*model.Task, len(pub.ids))
	for p, id := range pub.ids {
		t := pub.task(p, id)
		t.Domain = ci.rests[p].R
		c.Uvarint()
		out[p] = &t
	}
	for _, t := range out {
		t.TrueDomain = c.Int() - 1
	}
	return out
}

// task mints the task at position p whole — ID, text, choices and truth,
// no domain vector — for the oracles above and below.
func (tt *taskTable) task(p, id int) model.Task {
	choices := tt.appendChoices(nil, p)
	return model.Task{ID: id, Text: tt.textAt(p), Choices: choices, Truth: tt.truth(p), TrueDomain: model.NoTruth}
}

// batchOf is the Batch of tasks over m domains, unchecked: the packer's
// input for the task sets the codec tests build.
func batchOf(tasks []*model.Task, m int) *Batch {
	b := &Batch{n: len(tasks), m: m, task: func(i int) model.Task { return *tasks[i] }, domains: make([]model.DomainVector, len(tasks))}
	for i, t := range tasks {
		b.domains[i] = t.Domain
	}
	b.head, _ = headSize(b) // an oversized set is the packer's to take
	return b
}

// linkGiven is the linkers' work on a batch whose vectors are all given:
// each task's logged encoding, for the packer's linked to wait for.
func linkGiven(b *Batch) func() error {
	return func() error {
		b.keys = make([][]byte, b.n)
		return b.encodeChunk(0, b.n, &linkSpace{}, func(p int) model.DomainVector { return b.domains[p] })
	}
}

// tasks mints a decoded publication's tasks whole, in publication order.
func (pub *publication) tasks() []*model.Task {
	c, refs := wal.NewCursor(pub.body[pub.truths:]), wal.NewCursor(pub.body[pub.refs:])
	out := make([]*model.Task, len(pub.ids))
	for p, id := range pub.ids {
		t := pub.task(p, id)
		c.Uvarint()
		out[p] = &t
	}
	for _, t := range out {
		t.TrueDomain = c.Int() - 1
	}
	for _, t := range out {
		t.Domain = pub.vectors[refs.Uvarint()]
	}
	return out
}

// decodeTasks is decodePublication's tasks, minted whole.
func decodeTasks(rec wal.Record, m int) ([]*model.Task, error) {
	pub, err := decodePublication(rec, m)
	if err != nil {
		return nil, err
	}
	return pub.tasks(), nil
}

// servedTasks are tasks a table must serve back byte for byte: text that
// needs the DPC1 escapes (0x00, 0x01 and an escape's own bytes), empty and
// non-ASCII text and choices, and ℓ = 2, ℓ = 10 and ℓ = 130 with truth
// 128, which takes two bytes of the truth column, under IDs that do not
// ascend.
func servedTasks(m int) []*model.Task {
	texts := []string{"plain", "nul\x00inside", "wide", "\x01\x01\x02 escapes\x00\x01", "", "Ünïcödé — 日本語 ✓", "\x00", "\x01"}
	var tasks []*model.Task
	for i, text := range texts {
		choices, truth := []string{"yes", ""}, model.NoTruth
		switch {
		case i == 2: // the tasks after it lie a byte further on in the truth column
			choices, truth = make([]string, 130), 128
			for c := range choices {
				choices[c] = strconv.Itoa(c)
			}
		case i%2 == 1:
			choices, truth = []string{"a\x00", "\x01b", "ç", "", "5", "6", "7", "8", "9", "ten"}, 1
		}
		dom := make(model.DomainVector, m)
		dom[i%m] = 1
		tasks = append(tasks, &model.Task{ID: 3 * (len(texts) - i), Text: text, Choices: choices, Domain: dom, Truth: truth, TrueDomain: model.NoTruth})
	}
	return tasks
}

// TestTaskTableSameAfterWake: a wake holds the task table the publish
// built — slab, offset columns and truth column, byte for byte — and
// serves every task as the publish did: the same ID, text, choices and
// truth, however the text had to be escaped. Fingerprint holds no text, so
// this is what checks the served bytes across a wake.
func TestTaskTableSameAfterWake(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	live := bootSystem(t, cfg, dir)
	tasks := servedTasks(live.m)
	if err := live.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	serve := func(s *System) []model.Task {
		got, err := s.Request("w", len(tasks))
		if err != nil || len(got) != len(tasks) {
			t.Fatalf("served %d tasks (%v), want %d", len(got), err, len(tasks))
		}
		return s.Tasks(got)
	}
	published, want := live.pub.Load().taskTable, serve(live)
	for _, tk := range want {
		src := tasks[len(tasks)-tk.ID/3]
		if tk.Text != src.Text || !slices.Equal(tk.Choices, src.Choices) || tk.Truth != src.Truth {
			t.Fatalf("the publish serves task %d as %q %q truth %d, want %q %q truth %d",
				tk.ID, tk.Text, tk.Choices, tk.Truth, src.Text, src.Choices, src.Truth)
		}
	}
	if err := live.Hibernate(); err != nil {
		t.Fatal(err)
	}
	woken := bootSystem(t, cfg, dir)
	got := woken.pub.Load().taskTable
	if !bytes.Equal(got.body, published.body) || !slices.Equal(got.text, published.text) ||
		!slices.Equal(got.choices, published.choices) || got.truths != published.truths || !slices.Equal(got.wide, published.wide) {
		t.Fatal("the woken task table differs from the published one")
	}
	if got.wide == nil {
		t.Error("a truth of 128 left the truth column read a byte a task")
	}
	if cap(got.body) != len(got.body) {
		t.Errorf("the woken slab has %d bytes of capacity for %d of body", cap(got.body), len(got.body))
	}
	if !reflect.DeepEqual(serve(woken), want) {
		t.Error("the woken campaign serves its tasks otherwise than the published one")
	}
}

// TestAllocsUnpackPublication: a wake inflates a publication once, into a
// buffer its stated length sizes: unpacking 6,000 tasks allocates at most
// the inflated size plus 8 KiB — the allocator's rounding of the buffer to
// its pages (≈2.3 KB) and compress/flate's link tables, which its reader
// makes anew for every dynamic block (≈4.7 KB in 37 allocations) — where
// growing a buffer from empty and copying the body again cost twice the
// size and more. A record stating more than its stream can inflate to —
// 64 MiB, or the most a body may state — over a few bytes buys no memory
// the stream does not bound: 4 KiB at most.
func TestAllocsUnpackPublication(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const slack = 4 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a pool keeps what one P put for that P
	m := newSystem(t, Config{}).m
	blob := mustEncodePublication(t, publishedTasksOf(t, datasetTasks(6000)), m)
	if !bytes.HasPrefix(blob, []byte(deflateMagic)) {
		t.Fatalf("6,000 dataset tasks pack to %q, want a DPC4 record", blob[:4])
	}
	dpc1, err := unpackPublication(blob)
	if err != nil {
		t.Fatal(err)
	}
	stream := []byte{0x03, 0x00} // an empty final block in the fixed codes
	for _, c := range []struct {
		name  string
		blob  []byte
		limit uint64
	}{
		{"6,000 tasks", blob, uint64(len(dpc1)) + 2*slack},
		{"64 MiB stated", packedBlob(deflateMagic, 64<<20, stream), slack},
		{"the most a body may state", packedBlob(deflateMagic, uint64(maxPackedBody), stream), slack},
	} {
		unpackPublication(c.blob) // warm the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := unpackPublication(c.blob)
		runtime.ReadMemStats(&after)
		if (err == nil) != (c.name == "6,000 tasks") {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: unpacking allocates %d B in %d allocations", c.name, got, after.Mallocs-before.Mallocs)
		if got > c.limit {
			t.Errorf("%s: unpacking allocates %d B, want at most %d", c.name, got, c.limit)
		}
	}
}

// publishedTasksOf publishes tasks on a fresh memory-only campaign and
// returns them as it holds them, with the vectors DVE gave them.
func publishedTasksOf(t *testing.T, tasks []*model.Task) []*model.Task {
	t.Helper()
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	defer s.Close()
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	return publishedTasks(s)
}

// TestAllocsPackManyVectors: the packer encodes a publication's ref column
// and vector table beside the blob and copies the blob once, into a buffer
// of exactly its length. 2,400 requester tasks naming 300 distinct vectors
// — refs of two bytes past the 128th — pack allocating at most twice the
// blob plus 96 KiB (the head buffer, the ref column, the table and its
// map), where growing the blob by each ref's room copied it again for
// nearly every task past the 128th vector.
func TestAllocsPackManyVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const m, vectors = 4, 300
	tasks := make([]*model.Task, 2400)
	for i := range tasks {
		a := float64(i%vectors+1) / (vectors + 1)
		tasks[i] = &model.Task{ID: i, Text: "is item " + strconv.Itoa(i) + " a match?", Choices: []string{"yes", "no"},
			Domain: model.DomainVector{a, 1 - a, 0, 0}, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	}
	var blob []byte
	b := batchOf(tasks, m)
	if err := linkGiven(b)(); err != nil {
		t.Fatal(err)
	}
	pack := func() {
		if _, err := packRecord(b, nil, func() error { return nil }, func(dpc1 []byte) { blob = dpc1 }); err != nil {
			t.Fatal(err)
		}
	}
	pack()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pack()
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*len(blob)+96<<10)
	t.Logf("packing 2,400 tasks of %d vectors into %d B allocates %d B", vectors, len(blob), got)
	if got > limit {
		t.Errorf("packing 2,400 tasks of %d vectors into %d B allocates %d B, want at most %d", vectors, len(blob), got, limit)
	}
	if cap(blob) != len(blob) {
		t.Errorf("the packed blob has %d bytes of capacity for %d of blob", cap(blob), len(blob))
	}
	pub, err := decodeBinaryPublication(blob, m)
	if err != nil || len(pub.vectors) != vectors {
		t.Fatalf("the blob decodes to %d vectors (%v), want %d", len(pub.vectors), err, vectors)
	}
}

// TestDPC1SlabOwnsItsBytes: a publish record's blob, as the log reader
// hands it out, is a capped slice of the whole segment read from disk. A
// DPC1 record — one packing does not shorten — is copied out of it, so the
// woken campaign's slab does not keep the segment, and every answer record
// in it, alive.
func TestDPC1SlabOwnsItsBytes(t *testing.T) {
	blob := mustEncodePublication(t, randomTextTasks(3), 4)
	if !bytes.HasPrefix(blob, []byte(publicationMagic)) {
		t.Fatalf("random text logs %q, want the DPC1 blob", blob[:4])
	}
	segment := append(append(bytes.Repeat([]byte{7}, 64), blob...), bytes.Repeat([]byte{9}, 4<<10)...)
	rec := wal.Record{Seq: 1, Blob: segment[64 : 64+len(blob) : 64+len(blob)]}
	pub, err := decodePublication(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	start, end := uintptr(unsafe.Pointer(&segment[0])), uintptr(unsafe.Pointer(&segment[len(segment)-1]))
	if slab := uintptr(unsafe.Pointer(unsafe.SliceData(pub.body))); slab >= start && slab <= end {
		t.Error("the slab of a DPC1 record lies in the segment it was read from")
	}
	if !bytes.Equal(pub.body, blob[len(publicationMagic):]) || cap(pub.body) != len(pub.body) {
		t.Errorf("the slab holds %d bytes in %d of capacity, want the record's %d", len(pub.body), cap(pub.body), len(blob)-len(publicationMagic))
	}
}
