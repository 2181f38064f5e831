package core

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"docs/internal/dve"
	"docs/internal/model"
	"docs/internal/wal"
)

// A publication holds each distinct domain vector once: Publish's linkers
// and replay's decoder intern every vector under its logged encoding.

// vectorSharing checks that tasks share a domain vector's backing array
// exactly when their logged encodings are byte-equal, and returns how many
// arrays and how many encodings there are.
func vectorSharing(t *testing.T, tasks []*model.Task, m int) (arrays, encodings int) {
	t.Helper()
	byArray := map[*float64]string{}
	byKey := map[string]*float64{}
	var sparse wal.SparseFloats
	for _, tk := range tasks {
		key, err := appendVector(nil, &sparse, tk.Domain, m)
		if err != nil {
			t.Fatalf("task %d: %v", tk.ID, err)
		}
		p := unsafe.SliceData(tk.Domain)
		if k, ok := byArray[p]; ok && k != string(key) {
			t.Fatalf("task %d shares a vector array with a task whose logged vector differs", tk.ID)
		}
		byArray[p] = string(key)
		if q, ok := byKey[string(key)]; ok && q != p {
			t.Fatalf("task %d holds its own copy of a vector an earlier task holds", tk.ID)
		}
		byKey[string(key)] = p
	}
	return len(byArray), len(byKey)
}

// twinVectors are m = 26 vectors a requester may give that differ from
// one another only in bits an == would not see: a spike's −0 and denormal
// twins, one ulp moved between two halves, and the uniform vector.
func twinVectors() []model.DomainVector {
	halves := func() model.DomainVector { v := make(model.DomainVector, 26); v[3], v[7] = 0.5, 0.5; return v }
	negZero, denormal, ulp := halves(), halves(), halves()
	negZero[11] = math.Copysign(0, -1)
	denormal[11] = math.SmallestNonzeroFloat64
	ulp[3], ulp[7] = math.Nextafter(0.5, 1), math.Nextafter(0.5, 0)
	uniform := make(model.DomainVector, 26)
	for k := range uniform {
		uniform[k] = 1.0 / 26
	}
	return []model.DomainVector{halves(), negZero, denormal, ulp, uniform}
}

// TestPublishHoldsEachVectorOnce: over datasetTasks(6000), plus requester
// vectors that differ only in −0, a denormal or one ulp (each given twice,
// in arrays of their own) and a copy of the first task's DVE vector, every
// task's domain vector has the bits of its oracle — a fresh DVE vector per
// task, or the requester's own — and the campaign holds one array per
// distinct logged encoding, live and after Recover replays the record.
func TestPublishHoldsEachVectorOnce(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	tasks := datasetTasks(6000)
	want := make([]model.DomainVector, 0, len(tasks))
	for _, tk := range tasks {
		want = append(want, dve.Normalized(dve.FromLinked(s.linker.Link(tk.Text), s.m), s.m))
	}
	given := append(twinVectors(), twinVectors()...)
	given = append(given, slices.Clone(want[0]))
	for i, v := range given {
		tk := *tasks[i]
		tk.ID, tk.Domain = len(tasks), v
		tasks = append(tasks, &tk)
		want = append(want, slices.Clone(v))
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	check := func(name string, got []*model.Task) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d tasks, want %d", name, len(got), len(want))
		}
		for i, tk := range got {
			for k := range want[i] {
				if g, w := math.Float64bits(tk.Domain[k]), math.Float64bits(want[i][k]); g != w {
					t.Fatalf("%s: task %d domain %d = %#x, oracle %#x", name, tk.ID, k, g, w)
				}
			}
		}
		arrays, encodings := vectorSharing(t, got, s.m)
		t.Logf("%s: %d tasks hold %d vector arrays for %d distinct logged encodings", name, len(got), arrays, encodings)
		if arrays != encodings {
			t.Errorf("%s: %d vector arrays for %d distinct encodings", name, arrays, encodings)
		}
		// Five twins, and every DVE vector of the dataset among far fewer.
		if encodings < len(twinVectors()) || encodings > len(got)/10 {
			t.Errorf("%s: %d distinct encodings among %d tasks", name, encodings, len(got))
		}
	}
	check("published", publishedTasks(s))
	s.Close()

	r := newSystem(t, cfg)
	defer r.Close()
	if _, err := r.Recover(dir); err != nil {
		t.Fatal(err)
	}
	check("recovered", publishedTasks(r))
}

// TestAllocsReplayVectors: decoding the DPC1 blob of datasetTasks(6000)
// allocates one m-long vector per distinct logged encoding, not an n×m
// block: what it allocates past the task table's columns and the ID order
// is the distinct vectors, their transient table and the column of each
// entry's first task. The table holds the blob itself, so its strings cost
// nothing; its two offset columns, the ID column, its sorted permutation
// and the first tasks are five allocations, so the count is the vectors
// plus a constant.
func TestAllocsReplayVectors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	defer s.Close()
	tasks := datasetTasks(6000)
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	tasks = publishedTasks(s)
	_, distinct := vectorSharing(t, tasks, s.m)
	blob := mustEncodeBinaryPublication(t, tasks, s.m)
	// Everything but the vectors: the text and choices offsets, the IDs,
	// their permutation and the first tasks, at their sizes.
	rest := uint64(len(tasks)) * (4 + 4 + 8 + 4 + 4)
	const tableBytes = 16 << 10 // the table of under 128 vectors and the sparse scratch
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := decodeBinaryPublication(blob, s.m)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	vectors := uint64(distinct * s.m * 8)
	t.Logf("decoding %d tasks: %d B, %d allocations; %d vectors for %d encodings (%d B of vectors; an n×m block is %d B)",
		len(got.ids), bytes, after.Mallocs-before.Mallocs, len(got.vectors), distinct, vectors, len(got.ids)*s.m*8)
	if len(got.vectors) != distinct {
		t.Errorf("decoded %d vectors, published %d", len(got.vectors), distinct)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(distinct)+16 {
		t.Errorf("decoding %d tasks allocates %d times, want at most %d: one per distinct vector plus 16", len(got.ids), allocs, distinct+16)
	}
	// Size classes round the rest up by at most an eighth.
	if limit := rest + rest/8 + vectors + tableBytes; bytes > limit {
		t.Errorf("decoding %d tasks allocates %d B, want at most %d (rest %d, vectors %d, table %d)",
			len(got.ids), bytes, limit, rest, vectors, tableBytes)
	}
}

// TestValidatesEachVectorOnce: a publication's domain vectors are checked
// once each, not once a task. Publishing datasetTasks(6000) and waking it
// both run the one decoder, which validates each table entry for the first
// task naming it: as many validations as distinct vectors, both times.
func TestValidatesEachVectorOnce(t *testing.T) {
	var validations atomic.Int64
	defer func(v func(model.DomainVector, int) error) { validateVector = v }(validateVector)
	validateVector = func(v model.DomainVector, m int) error { validations.Add(1); return v.Validate(m) }
	dir := t.TempDir()
	cfg := Config{GoldenCount: -1, RerunEvery: -1}
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(datasetTasks(6000)); err != nil {
		t.Fatal(err)
	}
	_, distinct := vectorSharing(t, publishedTasks(s), s.m)
	if got := validations.Swap(0); got != int64(distinct) {
		t.Errorf("publishing 6,000 tasks of %d distinct vectors validated %d vectors", distinct, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newSystem(t, cfg)
	defer r.Close()
	if _, err := r.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if got := validations.Load(); got != int64(distinct) {
		t.Errorf("waking 6,000 tasks of %d distinct vectors validated %d vectors", distinct, got)
	}
}
