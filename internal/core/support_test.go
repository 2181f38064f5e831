package core

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/wal"
)

// A task's truth state holds one row per domain of its support. These tests
// pin what the support is at the system's edges — what Publish admits, what
// the log keeps, what a snapshot may claim — and the migration from the
// snapshot version that held all m rows.

// supportTasks builds n two-choice tasks with precomputed domain vectors of
// support 1 (even IDs) and support 2 (odd IDs), every fourth one carrying a
// −0 entry besides: stored by the log, outside the support.
func supportTasks(n int) []*model.Task {
	m := kb.MustDefault().Domains().Size()
	tasks := make([]*model.Task, n)
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[i%m] = 1
		if i%2 == 1 {
			dom[i%m], dom[(i+5)%m] = 0.75, 0.25
		}
		if i%4 == 0 {
			dom[(i+9)%m] = math.Copysign(0, -1)
		}
		tasks[i] = &model.Task{
			ID: i, Text: "task", Choices: []string{"a", "b"},
			Domain: dom, Truth: i % 2, TrueDomain: model.NoTruth,
		}
	}
	return tasks
}

// TestPublishRefusesNegativeDomainEntry: r = (−1e-7, 1+1e-7, 0, …) sums to 1
// and every entry is within model.Tolerance of [0, 1], so it used to be
// admitted — and the kernels then disagreed about domain 0 (r_k ≠ 0 said
// in, r_k > 0 said out). It is refused, and the refusal publishes nothing.
func TestPublishRefusesNegativeDomainEntry(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	defer s.Close()
	tasks := supportTasks(3)
	tasks[1].Domain = make(model.DomainVector, s.m)
	tasks[1].Domain[0], tasks[1].Domain[1] = -1e-7, 1+1e-7
	err := s.Publish(tasks)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("Publish of a vector with a −1e-7 entry: %v, want a refusal naming the negative entry", err)
	}
	if s.Published() {
		t.Fatal("the refused batch left the campaign published")
	}
	tasks[1].Domain[0], tasks[1].Domain[1] = math.Copysign(0, -1), 1
	if err := s.Publish(tasks); err != nil {
		t.Fatalf("−0 is a legal entry: %v", err)
	}
}

// TestSupportIsNotPresence pins the two predicates against each other,
// entry by entry. The log stores an entry when its bits are not +0's
// (DPC1's presence); the task relates to the domain when r_k > 0
// (DomainVector.Has). They differ at −0 only: stored, round-tripped bit for
// bit, and still not a row of the truth matrix.
func TestSupportIsNotPresence(t *testing.T) {
	denormal := math.SmallestNonzeroFloat64
	entries := []struct {
		name            string
		x               float64
		stored, support bool
	}{
		{"+0", 0, false, false},
		{"−0", math.Copysign(0, -1), true, false},
		{"smallest denormal", denormal, true, true},
		{"largest denormal", math.Float64frombits(0x000fffffffffffff), true, true},
		{"1e-300", 1e-300, true, true},
		{"the rest of the mass", 1, true, true},
	}
	s := newSystem(t, Config{GoldenCount: -1, RerunEvery: -1})
	defer s.Close()
	dom := make(model.DomainVector, s.m)
	stored, support := 0, 0
	for i, e := range entries {
		dom[2*i+1] = e.x
		if got := dom.Has(2*i + 1); got != e.support {
			t.Errorf("%s: Has = %v, want %v", e.name, got, e.support)
		}
		if e.stored {
			stored++
		}
		if e.support {
			support++
		}
	}
	if dom.Support() != support {
		t.Fatalf("Support() = %d, want %d", dom.Support(), support)
	}
	task := &model.Task{ID: 4, Text: "t", Choices: []string{"a", "b"}, Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth}
	blob := mustEncodePublication(t, []*model.Task{task}, s.m)
	if listed := wal.SparseOf(wal.SparseFloats{}, dom, 0); len(listed.K) != stored {
		t.Fatalf("the log lists %d entries, want %d", len(listed.K), stored)
	}
	back, err := decodeTasks(wal.Record{Seq: 1, Kind: wal.KindPublish, Blob: blob}, s.m)
	if err != nil {
		t.Fatal(err)
	}
	for k := range dom {
		if math.Float64bits(back[0].Domain[k]) != math.Float64bits(dom[k]) {
			t.Fatalf("entry %d came back %x, want %x", k, math.Float64bits(back[0].Domain[k]), math.Float64bits(dom[k]))
		}
	}
	if err := s.Publish(back); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("w", 4, 1); err != nil {
		t.Fatal(err)
	}
	if rows := len(s.index.Load().slots[0].View().M); rows != support {
		t.Fatalf("the answered task holds %d rows, want the %d of its support (a −0 entry is stored, not weighed)", rows, support)
	}
}

// supportCampaign runs the logged serial campaign over supportTasks and
// returns its directory, a snapshot of its final state (as a pass
// would have left it) and the full-replay fingerprint.
func supportCampaign(t *testing.T, cfg Config) (dir string, image []byte, want string) {
	t.Helper()
	dir = t.TempDir()
	runLoggedTasks(t, cfg, dir, supportTasks(30))
	full := newSystem(t, cfg)
	if _, err := full.Recover(dir); err != nil {
		t.Fatal(err)
	}
	want = full.Fingerprint()
	writeSnapshot(t, full)
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(dir, snapshot.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, image, want
}

var supportConfig = Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20, WALSegmentBytes: 1 << 10}

// TestSnapshotRowsMustMatchSupport: which domains a task state's rows stand
// for is the publication's to say, so a state whose row count is not the
// support's cannot be indexed. Both ways round — all 26 rows for a task of
// support 1 (what the DOCSSNP3 layout held), one row for a task of support
// 2 — the boot refuses the snapshot when the publish record applies, says
// why and replays the whole log to the same state. So it does for task
// states whose IDs do not ascend: one listed twice, or two swapped.
func TestSnapshotRowsMustMatchSupport(t *testing.T) {
	dir, image, want := supportCampaign(t, supportConfig)
	reshape := func(support int, rows func(ts *snapshot.TaskState, m int)) []byte {
		st, err := snapshot.Decode(image)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.TaskStates {
			if ts := &st.TaskStates[i]; len(ts.MHat) == support {
				rows(ts, st.M)
				out, err := snapshot.Encode(st)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
		}
		t.Fatalf("no task state of support %d in the snapshot", support)
		return nil
	}
	reorder := func(states func([]snapshot.TaskState) []snapshot.TaskState) []byte {
		st, err := snapshot.Decode(image)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.TaskStates) < 2 {
			t.Fatalf("%d task states in the snapshot, want two at least", len(st.TaskStates))
		}
		st.TaskStates = states(st.TaskStates)
		out, err := snapshot.Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := map[string]struct {
		data []byte
		why  string
	}{
		"26 rows for a support-1 task": {reshape(1, func(ts *snapshot.TaskState, m int) {
			for len(ts.MHat) < m {
				ts.MHat = append(ts.MHat, ts.MHat[0])
			}
		}), "support"},
		"1 row for a support-2 task": {reshape(2, func(ts *snapshot.TaskState, m int) { ts.MHat = ts.MHat[:1] }), "support"},
		"a task state listed twice": {reorder(func(ts []snapshot.TaskState) []snapshot.TaskState {
			return append([]snapshot.TaskState{ts[0]}, ts...)
		}), "repeated or out-of-order"},
		"two task states swapped": {reorder(func(ts []snapshot.TaskState) []snapshot.TaskState {
			ts[0], ts[1] = ts[1], ts[0]
			return ts
		}), "repeated or out-of-order"},
	}
	for name, c := range cases {
		if err := os.WriteFile(filepath.Join(dir, snapshot.FileName), c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Decode(c.data); err != nil {
			t.Fatalf("%s: the codec refused it; the boot's check was not reached: %v", name, err)
		}
		s := newSystem(t, supportConfig)
		info, err := s.Recover(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.SnapshotUsed || !strings.Contains(info.SnapshotRejected, c.why) {
			t.Fatalf("%s: used %v, rejected %q", name, info.SnapshotUsed, info.SnapshotRejected)
		}
		if got := s.Fingerprint(); got != want {
			t.Fatalf("%s: the full replay differs:\n%s", name, DiffFingerprints(got, want, 4))
		}
		s.Close()
	}
}

// encodePreviousSnapshot is the image a build before DOCSSNP5 wrote for
// st's engine numbers, with the sections those layouts carried beside them
// (publish record, answer count, golden IDs, serving state, store, answer
// log) present and empty. Version 4 is sparse; version 3 holds all m rows
// of every task state (a row outside the support holds the prior's 1s
// here; what it held was never read) and every statistics vector in full.
// Nothing in production reads or writes either any more; this copy builds
// TestOlderSnapshotFallsBackToReplay's files.
func encodePreviousSnapshot(t *testing.T, version int, st *snapshot.State, byID map[int]*model.Task) []byte {
	t.Helper()
	var b []byte
	uv := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	floats := func(fs ...float64) {
		for _, f := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	vector := func(sf wal.SparseFloats, base float64) {
		if version == 4 {
			var err error
			if b, err = wal.AppendSparseFloats(b, sf, st.M, base); err != nil {
				t.Fatal(err)
			}
			return
		}
		v := make([]float64, st.M)
		for k := range v {
			v[k] = base
		}
		if err := sf.Scatter(v); err != nil {
			t.Fatal(err)
		}
		uv(len(v))
		floats(v...)
	}
	uv(int(st.Seq))
	uv(1) // the publish record
	uv(0) // answers
	if version == 4 {
		uv(st.M)
		floats(st.BaseQ)
	}
	uv(0) // golden IDs
	uv(len(st.TaskStates))
	for _, ts := range st.TaskStates {
		uv(ts.ID)
		if version == 4 {
			uv(len(ts.MHat))
		} else {
			uv(st.M)
		}
		uv(len(ts.S))
		x := 0
		for k := 0; k < st.M; k++ {
			if byID[ts.ID].Domain.Has(k) {
				floats(ts.MHat[x]...)
				x++
			} else if version == 3 {
				for range ts.S {
					floats(1)
				}
			}
		}
		floats(ts.S...)
	}
	uv(len(st.Workers))
	for _, w := range st.Workers {
		b = appendStr(b, w.ID)
		vector(w.Q, st.BaseQ)
		vector(w.U, 0)
	}
	uv(0) // serving
	uv(0) // store
	uv(0) // store profiles
	b, err := wal.AppendColumns(b, &wal.Columns{})
	if err != nil {
		t.Fatal(err)
	}
	return wal.EncodeFrame([]byte(map[int]string{3: "DOCSSNP3", 4: "DOCSSNP4"}[version]), b)
}

// TestOlderSnapshotFallsBackToReplay: a directory whose snapshot is a
// well-formed file of a previous version — right checksum, every section
// in place — is not read: the magic is the version. The boot says so,
// replays the whole log to the state a fresh run reaches, and the next pass
// leaves the current format beside the same log.
func TestOlderSnapshotFallsBackToReplay(t *testing.T) {
	dir, image, want := supportCampaign(t, supportConfig)
	st, err := snapshot.Decode(image)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]*model.Task)
	for _, tk := range supportTasks(30) {
		byID[tk.ID] = tk
	}
	path := filepath.Join(dir, snapshot.FileName)
	for _, version := range []int{3, 4} {
		legacy := encodePreviousSnapshot(t, version, st, byID)
		if version == 3 && len(legacy) < 3*len(image) {
			t.Fatalf("the DOCSSNP3 image is %d bytes against %d: not the dense layout", len(legacy), len(image))
		}
		if err := os.WriteFile(path, legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		s := newSystem(t, supportConfig)
		info, err := s.Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if info.SnapshotUsed || info.SnapshotRejected == "" || info.Records == 0 {
			t.Fatalf("boot over a DOCSSNP%d snapshot: %+v", version, info)
		}
		if got := s.Fingerprint(); got != want {
			t.Fatalf("DOCSSNP%d: the full replay differs from a fresh run:\n%s", version, DiffFingerprints(got, want, 4))
		}
		// The next pass (Hibernate's): the log's answers lie past the
		// rejected snapshot, so it has work to do.
		if err := s.snapshotPass(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(after), "DOCSSNP5") {
			t.Fatalf("the pass left a file opening %q", after[:8])
		}
		if _, err := snapshot.Decode(after); err != nil {
			t.Fatal(err)
		}
		t.Logf("snapshot of the same engine: %d B as DOCSSNP%d, %d B as DOCSSNP5 (×%.3f)", len(legacy), version, len(image), float64(len(image))/float64(len(legacy)))
	}
}
