package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/mathx"
	"docs/internal/snapshot"
	"docs/internal/wal"
)

// writeStateAt fabricates the snapshot a background pass would have
// written after the first `covered` records: it replays them through a
// WAL-less serial system through applyRecord — what a pass's scratch
// replica does in replay, from an empty directory's rung of the ladder —
// and serializes that state keyed by the last covered sequence.
func writeStateAt(t *testing.T, cfg Config, dir string, recs []wal.Record, covered int) {
	t.Helper()
	if covered <= 0 {
		t.Fatal("writeStateAt needs a non-empty prefix")
	}
	ref := newSystem(t, cfg)
	defer ref.Close()
	applyPrefix(t, ref, recs[:covered])
	st := ref.exportState(recs[covered-1].Seq)
	if err := snapshot.Write(dir, st); err != nil {
		t.Fatal(err)
	}
}

// writeSnapshot snapshots a freshly recovered, quiescent system — whose
// state IS the serial state of its log — covering every record it replayed.
func writeSnapshot(t *testing.T, s *System) {
	t.Helper()
	st := s.exportState(s.wal.ReservedSeq())
	if err := snapshot.Write(s.walDir, st); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRoundTripProperty drives randomized campaign shapes (task
// count, golden count, redundancy, rerun cadence) through the logged
// serial harness, snapshots the recovered state, and asserts a
// snapshot-assisted boot reproduces the full-replay boot's Fingerprint bit
// for bit — then keeps serving both systems the same answer stream and
// asserts they stay identical (the restored engine state, answer lists,
// counters and rerun boundaries all have to be exact for that to hold).
func TestSnapshotRoundTripProperty(t *testing.T) {
	r := mathx.NewRand(2026)
	for i := 0; i < 8; i++ {
		cfg := Config{
			GoldenCount:     []int{-1, 3, 4, 5}[r.Intn(4)],
			HITSize:         3 + r.Intn(3),
			AnswersPerTask:  2 + r.Intn(3),
			RerunEvery:      15 + r.Intn(20),
			WALSegmentBytes: 1 << 10,
		}
		nTasks := 25 + r.Intn(40)
		dir := t.TempDir()
		recs := runLoggedCampaign(t, cfg, dir, nTasks)
		if len(recs) == 0 {
			t.Fatalf("case %d: empty campaign", i)
		}

		full := newSystem(t, cfg)
		if _, err := full.Recover(dir); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := full.Fingerprint()
		writeSnapshot(t, full)

		snapped := newSystem(t, cfg)
		info, err := snapped.Recover(dir)
		if err != nil {
			t.Fatalf("case %d: snapshot boot: %v", i, err)
		}
		if !info.SnapshotUsed || info.SnapshotRejected != "" {
			t.Fatalf("case %d: snapshot not used (rejected: %q)", i, info.SnapshotRejected)
		}
		if info.Records != 0 {
			t.Fatalf("case %d: full-coverage snapshot still replayed %d records", i, info.Records)
		}
		if got := snapped.Fingerprint(); got != want {
			t.Fatalf("case %d: snapshot boot differs from replay boot\nsnap: %.300s\nfull: %.300s", i, got, want)
		}
		// Encode(export(restore(Decode(b)))) == b: a snapshot survives a
		// restore byte for byte, so it is stable across boots.
		assertReexportIdentical(t, snapped, dir)

		// Continue serving the same stream down both systems: any drift in
		// the restored numerators, answer lists, worker stats or the rerun
		// cadence counter would surface here.
		var regular []int
		goldenSet := map[int]bool{}
		for _, id := range snapped.GoldenTasks() {
			goldenSet[id] = true
		}
		for _, tk := range snapped.InferTasks() {
			regular = append(regular, tk.ID)
		}
		sort.Ints(regular)
		for j := 0; j < 25; j++ {
			w := fmt.Sprintf("x%d", j%7)
			id := regular[j%len(regular)]
			c := j % 2
			errA := full.Submit(w, id, c)
			errB := snapped.Submit(w, id, c)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("case %d: continued submit %d disagrees: %v vs %v", i, j, errA, errB)
			}
		}
		if full.Fingerprint() != snapped.Fingerprint() {
			t.Fatalf("case %d: states diverged after continued serving", i)
		}
		if err := full.Close(); err != nil {
			t.Fatal(err)
		}
		if err := snapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// assertReexportIdentical re-exports a system that just booted from dir's
// snapshot and asserts the encoding equals the file it booted from.
func assertReexportIdentical(t *testing.T, s *System, dir string) {
	t.Helper()
	onDisk, err := os.ReadFile(filepath.Join(dir, snapshot.FileName))
	if err != nil {
		t.Fatal(err)
	}
	st := s.exportState(s.Stats().SnapshotLastSeq)
	again, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, onDisk) {
		t.Fatalf("re-export after restore is %d bytes and differs from the %d-byte snapshot restored", len(again), len(onDisk))
	}
}

// TestSnapshotSparseTaskStates: a snapshot carries inference state only for
// the tasks something touched. Answers on 3 of 200 tasks with no rerun
// encode exactly 3 task states; the other 197 restore to the registration
// prior, and the restored system re-exports the identical bytes.
func TestSnapshotSparseTaskStates(t *testing.T) {
	cfg := Config{GoldenCount: -1, HITSize: 4, RerunEvery: -1, WALSegmentBytes: 1 << 10}
	dir := t.TempDir()
	live := newSystem(t, cfg)
	if _, err := live.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := live.Publish(concTasks(live.m, 200)); err != nil {
		t.Fatal(err)
	}
	for i, id := range []int{7, 90, 199} {
		if err := live.Submit(fmt.Sprintf("w%d", i), id, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := live.Fingerprint()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	full := newSystem(t, cfg)
	if _, err := full.Recover(dir); err != nil {
		t.Fatal(err)
	}
	st := full.exportState(full.wal.ReservedSeq())
	if len(st.TaskStates) != 3 {
		t.Fatalf("snapshot holds %d task states, want the 3 answered tasks", len(st.TaskStates))
	}
	writeSnapshot(t, full)
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}

	snapped := newSystem(t, cfg)
	defer snapped.Close()
	info, err := snapped.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotUsed || info.Records != 0 {
		t.Fatalf("sparse snapshot not used (%+v)", info)
	}
	if got := snapped.Fingerprint(); got != want {
		t.Fatalf("sparse snapshot boot differs from the live state\n%s", diff(got, want))
	}
	assertReexportIdentical(t, snapped, dir)
}

// TestSnapshotFallbackLoud: a torn, corrupt, or log-overreaching snapshot
// must never poison a boot — recovery falls back to the full replay,
// recovers the identical state, and reports WHY in
// RecoveryInfo.SnapshotRejected (silent fallback would hide rot).
func TestSnapshotFallbackLoud(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	dir := t.TempDir()
	recs := runLoggedCampaign(t, cfg, dir, 30)

	full := newSystem(t, cfg)
	if _, err := full.Recover(dir); err != nil {
		t.Fatal(err)
	}
	want := full.Fingerprint()
	writeSnapshot(t, full)
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshot.FileName)
	pristine, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(snapPath, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		s := newSystem(t, cfg)
		info, err := s.Recover(dir)
		if err != nil {
			t.Fatalf("%s: fallback boot failed: %v", name, err)
		}
		if info.SnapshotUsed {
			t.Fatalf("%s: corrupt snapshot was used", name)
		}
		if info.SnapshotRejected == "" {
			t.Fatalf("%s: fallback was silent", name)
		}
		if info.Records != len(recs) {
			t.Fatalf("%s: fallback replayed %d records, want %d", name, info.Records, len(recs))
		}
		if got := s.Fingerprint(); got != want {
			t.Fatalf("%s: fallback state differs from full replay", name)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	corrupt("torn tail", func(b []byte) []byte { return b[:len(b)-7] })
	corrupt("payload rot", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	// The previous (JSON) format: unreadable, so the campaign pays one full
	// replay and its next snapshot pass writes the current format.
	corrupt("DOCSSNP2 file", func(b []byte) []byte { copy(b, "DOCSSNP2"); return b })

	// CRC-valid snapshots that contradict the log they sit beside.
	edited := func(edit func(*snapshot.State)) func([]byte) []byte {
		return func(b []byte) []byte {
			st, err := snapshot.Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			edit(st)
			out, err := snapshot.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
	}
	corrupt("state for a task the publication lacks", edited(func(st *snapshot.State) {
		st.TaskStates[len(st.TaskStates)-1].ID += 1 << 20
	}))
	corrupt("snapshot before the publish record", edited(func(st *snapshot.State) {
		st.Seq = 0
	}))

	// A snapshot claiming sequences past the durable log (what a power loss
	// under SyncNever leaves behind): crash the log at a prefix but keep
	// the full-coverage snapshot.
	cut := len(recs) / 2
	crashDir := t.TempDir()
	crashtest.ReadLog(t, dir).Cut(t, crashDir, crashtest.Kill{Surviving: cut})
	if err := os.WriteFile(filepath.Join(crashDir, snapshot.FileName), pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	ref := newSystem(t, cfg)
	defer ref.Close()
	applyPrefix(t, ref, recs[:cut])
	s := newSystem(t, cfg)
	info, err := s.Recover(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotUsed || info.SnapshotRejected == "" {
		t.Fatalf("log-overreaching snapshot not rejected loudly (used=%v rejected=%q)",
			info.SnapshotUsed, info.SnapshotRejected)
	}
	if got := s.Fingerprint(); got != ref.Fingerprint() {
		t.Fatal("fallback after overreaching snapshot differs from prefix replay")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// sweepKills boots the crash image of log at every kill point, sorted by
// Surviving, holds each boot bit-identical to a WAL-less reference that
// applied exactly the surviving records, and then runs then with the image
// and the reference's fingerprint.
func sweepKills(t *testing.T, cfg Config, log *crashtest.Log, kills []crashtest.Kill, then func(i int, k crashtest.Kill, img, want string)) {
	t.Helper()
	ref := newSystem(t, cfg)
	applied := 0
	for i, k := range kills {
		applyPrefix(t, ref, log.Records[applied:k.Surviving])
		applied = k.Surviving
		img := t.TempDir()
		log.Cut(t, img, k)
		rec := newSystem(t, cfg)
		info, err := rec.Recover(img)
		if err != nil {
			t.Fatalf("kill %d (surviving=%d torn=%d): recover: %v", i, k.Surviving, k.Torn, err)
		}
		if info.Records != k.Surviving {
			t.Fatalf("kill %d: recovered %d records, want %d (torn=%d)", i, info.Records, k.Surviving, k.Torn)
		}
		if info.SnapshotUsed {
			t.Fatalf("kill %d: a cut image holds no snapshot, yet the boot used one", i)
		}
		if k.Torn > 0 && !info.TornTail {
			t.Errorf("kill %d: torn cut not reported as torn tail", i)
		}
		want := ref.Fingerprint()
		if got := rec.Fingerprint(); got != want {
			t.Fatalf("kill %d (surviving=%d torn=%d): recovered state differs from serial reference\n%s", i, k.Surviving, k.Torn,
				crashtest.Report(t, fmt.Sprintf("kill-%03d", i), diff(got, want)))
		}
		rec.Close()
		then(i, k, img, want)
	}
}

// TestCrashInjectionSnapshotBothWays is the snapshot acceptance sweep: at
// every randomized kill point (clean boundaries and torn mid-frame cuts)
// the surviving log is recovered BOTH ways — full replay, and snapshot
// restore at a covering prefix plus suffix replay — and the two
// Fingerprints must be bit-identical to each other and to the serial
// reference.
func TestCrashInjectionSnapshotBothWays(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	srcDir := t.TempDir()
	recs := runLoggedCampaign(t, cfg, srcDir, 50)
	if len(recs) < 40 {
		t.Fatalf("campaign produced only %d records", len(recs))
	}

	// Snapshot states at fixed prefixes, fabricated exactly as a pass's
	// scratch replica would have written them.
	snapAt := []int{len(recs) / 4, len(recs) / 2, 3 * len(recs) / 4}
	states := map[int]*snapshot.State{}
	for _, j := range snapAt {
		ref := newSystem(t, cfg)
		applyPrefix(t, ref, recs[:j])
		st := ref.exportState(recs[j-1].Seq)
		states[j] = st
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Every kill keeps the publication (Surviving ≥ 1). The sweep checks
	// the full replay against the serial reference; the snapshot boot
	// must then land on the same bits.
	kills := crashtest.Kills(mathx.NewRand(31), 27, len(recs), 1, crashtest.Kill{Surviving: len(recs) - 1, Torn: 5})
	sweepKills(t, cfg, crashtest.ReadLog(t, srcDir), kills, func(i int, k crashtest.Kill, img, fpFull string) {
		// The largest fabricated snapshot that the surviving log covers.
		best := 0
		for _, j := range snapAt {
			if j <= k.Surviving && j > best {
				best = j
			}
		}
		if best == 0 {
			return
		}
		if err := snapshot.Write(img, states[best]); err != nil {
			t.Fatal(err)
		}
		snapped := newSystem(t, cfg)
		info, err := snapped.Recover(img)
		if err != nil {
			t.Fatalf("kill %d: snapshot boot: %v", i, err)
		}
		if !info.SnapshotUsed || info.SnapshotRejected != "" {
			t.Fatalf("kill %d: snapshot at %d rejected: %q", i, best, info.SnapshotRejected)
		}
		if info.Records != k.Surviving-best {
			t.Fatalf("kill %d: snapshot boot replayed %d records, want suffix %d",
				i, info.Records, k.Surviving-best)
		}
		if got := snapped.Fingerprint(); got != fpFull {
			t.Fatalf("kill %d (surviving=%d torn=%d snapshot=%d): snapshot boot differs from full replay\n%s",
				i, k.Surviving, k.Torn, best, crashtest.Report(t, fmt.Sprintf("snapshot-%03d", i), diff(got, fpFull)))
		}
		if err := snapped.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSnapshotCheckpointInterleaving pins a snapshot pass after a
// snapshot-assisted boot: the scratch replica boots from the mid-stream
// snapshot on disk, replays the segment suffix, and the snapshot it
// writes covers the whole log and boots bit-identically to a full replay.
func TestSnapshotCheckpointInterleaving(t *testing.T) {
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10}
	dir := t.TempDir()
	recs := runLoggedCampaign(t, cfg, dir, 40)
	tail := recs[len(recs)-1].Seq

	full := newSystem(t, cfg)
	if _, err := full.Recover(dir); err != nil {
		t.Fatal(err)
	}
	want := full.Fingerprint()
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}

	snapAt := len(recs) / 2
	writeStateAt(t, cfg, dir, recs, snapAt)
	s := newSystem(t, cfg)
	info, err := s.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotUsed || info.SnapshotSeq != recs[snapAt-1].Seq {
		t.Fatalf("snapshot not used as expected (%+v)", info)
	}
	if got := s.Fingerprint(); got != want {
		t.Fatalf("recovered state differs from full replay\n%s", diff(got, want))
	}
	if err := s.snapshotPass(); err != nil {
		t.Fatalf("snapshot pass: %v", err)
	}
	if got := s.Stats().SnapshotLastSeq; got != tail {
		t.Fatalf("pass covered seq %d, want log tail %d", got, tail)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	final := newSystem(t, cfg)
	info, err = final.Recover(dir)
	if err != nil {
		t.Fatalf("boot from pass-written snapshot: %v", err)
	}
	if !info.SnapshotUsed || info.SnapshotSeq != tail || info.Records != 0 {
		t.Fatalf("pass-written snapshot not used (%+v)", info)
	}
	if got := final.Fingerprint(); got != want {
		t.Fatal("boot from pass-written snapshot differs")
	}
	if err := final.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedRerunStillResyncsIndex: a rerun that fails (inference error)
// must still leave the candidate index resynced — resync doubles as the
// safety net for closures the incremental path missed, and before the fix
// a failing rerun skipped it until the next SUCCESSFUL rerun, unboundedly
// long if the failure repeats.
func TestFailedRerunStillResyncsIndex(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 1, RerunEvery: 2})
	if err := s.Publish(indexTasks(16, s.Domains().Size())); err != nil {
		t.Fatal(err)
	}
	s.rerunFault = func() error { return fmt.Errorf("injected inference failure") }

	// Two answers close two tasks (redundancy 1); the second trips the
	// periodic rerun, which fails. The closed entries are below the
	// compaction threshold (16/4 = 4), so only resync can republish.
	epoch0 := s.Stats().IndexEpoch
	if err := s.Submit("w1", 0, 0); err != nil {
		t.Fatal(err)
	}
	err := s.Submit("w2", 1, 0)
	if err == nil {
		t.Fatal("submit at the rerun boundary should surface the rerun failure")
	}
	if got := s.Stats().OpenTasks; got != 14 {
		t.Fatalf("OpenTasks = %d, want 14", got)
	}
	ci := s.pub.Load().ci
	if ci == nil {
		t.Fatal("no candidate index")
	}
	if got := len(ci.load().entries); got != 14 {
		t.Fatalf("published candidate array holds %d entries, want 14 — failed rerun skipped resync", got)
	}
	if s.Stats().IndexEpoch == epoch0 {
		t.Fatal("index epoch unchanged: failed rerun did not republish")
	}
	if got := s.Stats().RerunsFailed; got != 1 {
		t.Fatalf("RerunsFailed = %d, want the 1 that failed", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPassRetriesAfterWriteFailure: a pass whose snapshot cannot
// be written fails, and moves nothing; the next pass exports afresh and
// covers the log's tail, and a boot from it is the live campaign.
func TestSnapshotPassRetriesAfterWriteFailure(t *testing.T) {
	cfg := Config{GoldenCount: -1, HITSize: 4, RerunEvery: 10, WALSegmentBytes: 1 << 10}
	dir := t.TempDir()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(indexTasks(30, s.m)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if err := s.Submit(fmt.Sprintf("w%d", i), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.snapshotPass(); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	goodSeq := s.Stats().SnapshotLastSeq

	// A non-empty directory where the pass stages its file fails the
	// write. The answers cross the next rerun boundary.
	block := filepath.Join(dir, snapshot.FileName+".tmp")
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 21; i++ {
		if err := s.Submit(fmt.Sprintf("w%d", i), i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.snapshotPass(); err == nil {
		t.Fatal("a pass that could not write its snapshot succeeded")
	}
	if got := s.Stats().SnapshotLastSeq; got != goodSeq {
		t.Fatalf("failed pass moved the snapshot seq to %d", got)
	}

	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if err := s.snapshotPass(); err != nil {
		t.Fatalf("retried pass: %v", err)
	}
	if got, want := s.Stats().SnapshotLastSeq, s.wal.ReservedSeq(); got != want {
		t.Fatalf("retried pass covered seq %d, want log tail %d", got, want)
	}
	want := s.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	boot := newSystem(t, cfg)
	info, err := boot.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !info.SnapshotUsed || info.Records != 0 {
		t.Fatalf("the retried pass's snapshot not used (%+v)", info)
	}
	if got := boot.Fingerprint(); got != want {
		t.Fatal("boot from the retried pass's snapshot differs from the live campaign")
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotReplica is the snapshot pass's oracle: the pass as it ran while
// a live campaign's reruns could swap in where its log's replay does not
// run them. It boots a scratch serial replica from s's WAL directory — the
// replay a restarting process runs — and returns the replica's engine
// numbers at the log's durable tail; fault, when set, is the replica's
// rerunFault. The log is synced on s's writer first, so the replica reads
// every record s applied.
func snapshotReplica(s *System, fault func() error) (*snapshot.State, error) {
	if err := s.do(s.wal.Sync); err != nil {
		return nil, err
	}
	cfg := s.cfg
	cfg.KB = s.kb
	cfg.LeaseTTL = 0    // the replica never serves requests
	cfg.Store = s.store // a replayed profiling merge finds its ID and changes nothing
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	r.rerunFault, r.eagerInstall = fault, s.eagerInstall
	var info RecoveryInfo
	if err := r.do(func() (err error) { info, err = r.replay(s.walDir); return err }); err != nil {
		return nil, err
	}
	return r.exportState(info.LastSeq), nil
}

// heapAfterGC is the live heap once a collection has run (the
// BENCH_density method).
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSnapshotPassLeavesNothingResident: a pass exports the engine and
// drops the export once it is written, so the heap a campaign holds is the
// same before and after one — an export or a replica kept between passes
// would show up as roughly one more copy of the campaign's numbers.
func TestSnapshotPassLeavesNothingResident(t *testing.T) {
	const n = 3000
	base := heapAfterGC()
	s := newSystem(t, Config{GoldenCount: -1, HITSize: 4, RerunEvery: 1000})
	if _, err := s.Recover(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(indexTasks(n, s.m)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Submit(fmt.Sprintf("w%d", i%50), i, i%2); err != nil {
			t.Fatal(err)
		}
	}
	before := heapAfterGC()
	campaign := before - base
	if err := s.snapshotPass(); err != nil {
		t.Fatalf("snapshot pass: %v", err)
	}
	after := heapAfterGC()
	if got, want := s.Stats().SnapshotLastSeq, s.wal.ReservedSeq(); got != want {
		t.Fatalf("pass covered seq %d, want log tail %d", got, want)
	}
	if kept := int64(after) - int64(before); kept > int64(campaign/4) {
		t.Fatalf("a pass left %d KiB resident; the campaign itself holds %d KiB", kept>>10, campaign>>10)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
