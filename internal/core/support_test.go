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
// (DPB1's presence); the task relates to the domain when r_k > 0
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
	back, err := decodePublication(wal.Record{Seq: 1, Kind: wal.KindPublish, Blob: blob}, s.m)
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
	if rows := len(s.inc.View(4).M); rows != support {
		t.Fatalf("the answered task holds %d rows, want the %d of its support (a −0 entry is stored, not weighed)", rows, support)
	}
}

// supportCampaign runs the logged serial campaign over supportTasks and
// returns its directory, a snapshot of its final state (DOCSSNP4, as a pass
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
// support 1 (what the previous layout held), one row for a task of support
// 2 — the snapshot is refused in the validation phase, the system is left
// as it was, the boot says why and replays the whole log to the same state.
func TestSnapshotRowsMustMatchSupport(t *testing.T) {
	dir, image, want := supportCampaign(t, supportConfig)
	virgin := newSystem(t, supportConfig)
	untouched := virgin.Fingerprint()
	virgin.Close()

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
	cases := map[string][]byte{
		"26 rows for a support-1 task": reshape(1, func(ts *snapshot.TaskState, m int) {
			for len(ts.MHat) < m {
				ts.MHat = append(ts.MHat, ts.MHat[0])
			}
		}),
		"1 row for a support-2 task": reshape(2, func(ts *snapshot.TaskState, m int) { ts.MHat = ts.MHat[:1] }),
	}
	for name, data := range cases {
		if err := os.WriteFile(filepath.Join(dir, snapshot.FileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := snapshot.Decode(data)
		if err != nil {
			t.Fatalf("%s: the codec refused it; the restore's check was not reached: %v", name, err)
		}
		s := newSystem(t, supportConfig)
		if err := s.restoreSnapshot(dir, st); err == nil || !strings.Contains(err.Error(), "support") {
			t.Fatalf("%s: restoreSnapshot = %v, want a refusal naming the support", name, err)
		}
		if s.Published() || s.Fingerprint() != untouched {
			t.Fatalf("%s: the refused restore touched the system", name)
		}
		info, err := s.Recover(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.SnapshotUsed || !strings.Contains(info.SnapshotRejected, "support") {
			t.Fatalf("%s: used %v, rejected %q", name, info.SnapshotUsed, info.SnapshotRejected)
		}
		if got := s.Fingerprint(); got != want {
			t.Fatalf("%s: the full replay differs:\n%s", name, DiffFingerprints(got, want, 4))
		}
		s.Close()
	}
}

// encodeLegacySnapshot is the snapshot image builds before DOCSSNP4 wrote
// for st: all m rows of every task state (a row outside the support holds
// the prior's 1s here; what it held was never read), every statistics
// vector in full, magic "DOCSSNP3". Nothing in production reads or writes
// it any more; this copy builds TestOlderSnapshotFallsBackToReplay's file.
func encodeLegacySnapshot(t *testing.T, st *snapshot.State, byID map[int]*model.Task) []byte {
	t.Helper()
	var b []byte
	uv := func(v int) { b = binary.AppendUvarint(b, uint64(v)) }
	floats := func(fs ...float64) {
		for _, f := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	ints := func(vs []int) {
		uv(len(vs))
		for _, v := range vs {
			uv(v)
		}
	}
	dense := func(sf wal.SparseFloats, base float64) {
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
	stats := func(ws []snapshot.WorkerStats) {
		uv(len(ws))
		for _, w := range ws {
			b = appendStr(b, w.ID)
			dense(w.Q, st.BaseQ)
			dense(w.U, 0)
		}
	}
	uv(int(st.Seq))
	uv(int(st.PublishSeq))
	uv(int(st.Answers))
	ints(st.GoldenIDs)
	uv(len(st.TaskStates))
	for _, ts := range st.TaskStates {
		uv(ts.ID)
		uv(st.M)
		uv(len(ts.S))
		x := 0
		for k := 0; k < st.M; k++ {
			if byID[ts.ID].Domain.Has(k) {
				floats(ts.MHat[x]...)
				x++
				continue
			}
			for range ts.S {
				floats(1)
			}
		}
		floats(ts.S...)
	}
	stats(st.Workers)
	uv(len(st.Serving))
	for _, ws := range st.Serving {
		b = appendStr(b, ws.ID)
		if ws.Profiled {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		ints(ws.GoldenTasks)
		ints(ws.GoldenChoices)
		if ws.Anchored {
			dense(ws.AnchorQ, st.BaseQ)
			dense(ws.AnchorU, 0)
		} else {
			uv(0)
			uv(0)
		}
	}
	stats(st.Store)
	stats(st.StoreProfiles)
	b, err := wal.AppendColumns(b, &st.Log)
	if err != nil {
		t.Fatal(err)
	}
	return wal.EncodeFrame([]byte("DOCSSNP3"), b)
}

// TestOlderSnapshotFallsBackToReplay: a directory whose snapshot is a
// well-formed file of the previous version — right checksum, every section
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
	legacy := encodeLegacySnapshot(t, st, byID)
	if len(legacy) < 3*len(image) {
		t.Fatalf("the legacy image is %d bytes against %d: not the dense layout", len(legacy), len(image))
	}
	path := filepath.Join(dir, snapshot.FileName)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newSystem(t, supportConfig)
	defer s.Close()
	info, err := s.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotUsed || info.SnapshotRejected == "" || info.Records == 0 {
		t.Fatalf("boot over a previous-version snapshot: %+v", info)
	}
	if got := s.Fingerprint(); got != want {
		t.Fatalf("the full replay differs from a fresh run:\n%s", DiffFingerprints(got, want, 4))
	}
	// The next pass (Hibernate's, or the background worker's): the log's
	// answers lie past the rejected snapshot, so it has work to do.
	if err := s.snapshotPass(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(after), "DOCSSNP4") {
		t.Fatalf("the pass left a file opening %q", after[:8])
	}
	if _, err := snapshot.Decode(after); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot of the same state: %d B as DOCSSNP3, %d B as DOCSSNP4 (×%.3f)", len(legacy), len(image), float64(len(image))/float64(len(legacy)))
}
