// State snapshots: O(suffix) recovery instead of full-log replay.
//
// The serving core's canonical state is defined as the serial replay of
// its durable record stream, so a correct state snapshot must be exactly
// that serial state — and the live system, serving concurrently (and
// possibly rerunning inference asynchronously), is NOT in that state. The
// snapshot subsystem therefore never serializes the live System: a
// snapshot pass is a scratch boot. It builds a virgin serial System,
// replays the WAL directory into it exactly as Recover would (newest
// usable snapshot, then the suffix past it), serializes that replica —
// every float as raw bits, minus what the log beside it already determines
// (the publication, untouched tasks, answered sets) — into an
// atomically-replaced snapshot file keyed by the WAL sequence it covers,
// and drops the replica. Because the replica replayed exactly the records
// a booting process would, restoring the snapshot and replaying the WAL
// suffix past it reconstructs the full-replay state bit for bit; the
// crash-injection suite asserts that equality at every kill point, both
// ways.
//
// Hibernate is the only caller of a pass. It costs one boot — a snapshot
// restore plus the serial replay of the records since, with one rerun —
// and holds a second copy of the campaign's state only while it runs.
package core

import (
	"errors"
	"fmt"
	"sort"

	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/truth"
	"docs/internal/wal"
)

// LastSnapshotSeq returns the WAL sequence covered by the newest snapshot
// this process wrote or booted from (0 when none).
func (s *System) LastSnapshotSeq() uint64 { return s.snapSeq.Load() }

// exportState serializes the system's complete recoverable state at the
// given WAL sequence. The system must be quiescent (a pass's scratch
// replica, or a freshly recovered system before serving).
//
// A snapshot is compared bit-for-bit across boots, so this is a docs-lint
// determinism root: map iteration below must stay collect-then-sort (or
// per-key isolated), and every float must travel as raw bits.
//
//docs:deterministic
func (s *System) exportState(seq uint64) *snapshot.State {
	st := &snapshot.State{Seq: seq, PublishSeq: s.publishSeq.Load(), Answers: s.submissions.Load(),
		M: s.m, BaseQ: truth.DefaultQuality}

	s.mu.RLock()
	for _, t := range s.tasks {
		if s.golden[t.ID] {
			st.GoldenIDs = append(st.GoldenIDs, t.ID)
		}
	}
	s.mu.RUnlock()

	// Only the tasks touched since publication: the rest are at the prior
	// AddTask re-derives on restore.
	for _, ts := range s.inc.ExportTasks() {
		st.TaskStates = append(st.TaskStates, snapshot.TaskState(ts))
	}
	for _, w := range s.inc.Workers() {
		st.Workers = append(st.Workers, codecStats(w, s.inc.Worker(w)))
	}

	// Per-worker serving state, gathered across the shards and sorted for a
	// deterministic encoding. The answered-task sets are not exported: they
	// are the per-worker projection of the log below.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for w, ws := range sh.workers {
			sv := snapshot.WorkerServing{ID: w, Profiled: ws.profiled}
			for _, a := range ws.goldenAnswers {
				sv.GoldenTasks = append(sv.GoldenTasks, a.Task)
				sv.GoldenChoices = append(sv.GoldenChoices, a.Choice)
			}
			if ws.anchor != nil {
				a := codecStats(w, ws.anchor)
				sv.Anchored, sv.AnchorQ, sv.AnchorU = true, a.Q, a.U
			}
			st.Serving = append(st.Serving, sv)
		}
		sh.mu.Unlock()
	}
	sort.Slice(st.Serving, func(i, j int) bool { return st.Serving[i].ID < st.Serving[j].ID })

	// The chronological answer log, column-packed with a worker dictionary.
	var lg wal.ColumnBuilder
	for _, a := range s.logPrefix() {
		lg.Add(a.Worker, a.Task, a.Choice)
	}
	st.Log = lg.Columns

	// A persistent store is durable on its own and recovery never writes
	// it; a memory-only store is derived state that a full replay would
	// rebuild, so the snapshot must carry it.
	if !s.store.Persistent() {
		for _, w := range s.store.Workers() {
			ws, _ := s.store.Worker(w)
			st.Store = append(st.Store, codecStats(w, ws))
		}
		for _, pid := range s.store.ProfileIDs() {
			a, _ := s.store.ProfileAnchor(pid)
			st.StoreProfiles = append(st.StoreProfiles, codecStats(pid, a))
		}
	}
	return st
}

// codecStats puts worker statistics into codec form: the entries that are
// not the prior's (truth.NewStats: DefaultQuality, weight +0), by bits.
func codecStats(id string, st *truth.Stats) snapshot.WorkerStats {
	return snapshot.WorkerStats{
		ID: id,
		Q:  wal.SparseOf(wal.SparseFloats{}, st.Q, truth.DefaultQuality),
		U:  wal.SparseOf(wal.SparseFloats{}, st.U, 0),
	}
}

// readPublication returns the task set the WAL's publish record at seq
// carries. The log is gapless from sequence 1 and segments are never
// deleted, so the record a snapshot names is there unless the directory
// was damaged — which the caller reports as a rejected snapshot.
func readPublication(dir string, seq uint64, m int) ([]*model.Task, error) {
	var tasks []*model.Task
	found := errors.New("found")
	_, err := wal.ReplayFrom(dir, seq-1, func(rec wal.Record) error {
		if rec.Kind != wal.KindPublish {
			return fmt.Errorf("record %d is not a publish record", rec.Seq)
		}
		var derr error
		if tasks, derr = decodePublication(rec, m); derr != nil {
			return derr
		}
		return found
	})
	if err == nil {
		return nil, fmt.Errorf("publish record %d is missing from the log", seq)
	}
	if !errors.Is(err, found) {
		return nil, err
	}
	return tasks, nil
}

// restoreSnapshot installs a snapshot's state into a virgin system (no
// publish, no answers), taking the publication from the WAL record in dir
// the snapshot names. It validates the entire snapshot against the
// system's configuration BEFORE mutating anything, so an error return
// leaves the system untouched and the caller can fall back to a full
// replay; an error after mutation begins is impossible by construction
// (every failing check runs in the validation phase). The system keeps
// references into snap, which the caller must not reuse.
//
//docs:deterministic
func (s *System) restoreSnapshot(dir string, snap *snapshot.State) error {
	s.mu.RLock()
	published := len(s.tasks) > 0
	s.mu.RUnlock()
	if published || s.submissions.Load() != 0 {
		return fmt.Errorf("core: snapshot restore into a serving system")
	}

	// --- validation phase: parse and cross-check everything ---
	if snap.M != s.m {
		return fmt.Errorf("core: snapshot holds statistics over %d domains, want %d", snap.M, s.m)
	}
	if snap.PublishSeq > snap.Seq {
		return fmt.Errorf("core: snapshot at seq %d names publish record %d", snap.Seq, snap.PublishSeq)
	}
	var tasks []*model.Task
	if snap.PublishSeq > 0 {
		var err error
		if tasks, err = readPublication(dir, snap.PublishSeq, s.m); err != nil {
			return fmt.Errorf("core: snapshot publication: %w", err)
		}
	}
	if len(tasks) == 0 {
		if snap.Seq > 0 || snap.Answers != 0 || snap.Log.Len() != 0 || len(snap.TaskStates) != 0 {
			return fmt.Errorf("core: snapshot has state but no publication")
		}
		return nil // empty snapshot of an unpublished campaign: nothing to do
	}
	byID := make(map[int]*model.Task, len(tasks))
	for _, t := range tasks {
		if err := t.Validate(s.m); err != nil {
			return fmt.Errorf("core: snapshot: %w", err)
		}
		if _, dup := byID[t.ID]; dup {
			return fmt.Errorf("core: snapshot duplicate task %d", t.ID)
		}
		byID[t.ID] = t
	}
	golden := make(map[int]bool, len(snap.GoldenIDs))
	for _, id := range snap.GoldenIDs {
		t, ok := byID[id]
		if !ok || golden[id] {
			return fmt.Errorf("core: snapshot golden task %d unknown or repeated", id)
		}
		if t.Truth == model.NoTruth {
			return fmt.Errorf("core: snapshot golden task %d has no ground truth", id)
		}
		golden[id] = true
	}

	// A non-golden task carries at most one inference state; one without is
	// untouched and stays at the prior AddTask gives it.
	states := make(map[int]snapshot.TaskState, len(snap.TaskStates))
	for _, ts := range snap.TaskStates {
		t, ok := byID[ts.ID]
		if !ok || golden[ts.ID] {
			return fmt.Errorf("core: snapshot state for unknown or golden task %d", ts.ID)
		}
		if _, dup := states[ts.ID]; dup {
			return fmt.Errorf("core: snapshot repeats task state %d", ts.ID)
		}
		// The codec guarantees every M̂ row is len(S) long. Which domains
		// the rows stand for is the publication's to say: a row count that
		// is not the support's would index the matrix wrongly, so it is a
		// rejected snapshot, never a restored one.
		if rows := t.Domain.Support(); len(ts.MHat) != rows || len(ts.S) != t.NumChoices() {
			return fmt.Errorf("core: snapshot task %d state is %d×%d, want the %d rows of its support × %d choices",
				ts.ID, len(ts.MHat), len(ts.S), rows, t.NumChoices())
		}
		states[ts.ID] = ts
	}

	// Decode and validate the chronological log; rebuild per-task answer
	// lists (each task's accepted answers are its per-task subsequence).
	lg := &snap.Log
	if len(lg.T) != len(lg.W) || len(lg.C) != len(lg.W) {
		return fmt.Errorf("core: snapshot log columns disagree")
	}
	if snap.Answers != int64(lg.Len()) {
		return fmt.Errorf("core: snapshot answer count %d != log length %d", snap.Answers, lg.Len())
	}
	log := make([]model.Answer, lg.Len())
	byTask := make(map[int][]model.Answer)
	seen := make(map[int]map[int]bool) // task -> worker index -> answered
	for i := range lg.W {
		wi, tid, c := lg.W[i], lg.T[i], lg.C[i]
		if wi < 0 || wi >= len(lg.Workers) {
			return fmt.Errorf("core: snapshot log entry %d has bad worker index", i)
		}
		t, ok := byID[tid]
		if !ok || golden[tid] {
			return fmt.Errorf("core: snapshot log entry %d targets unknown or golden task %d", i, tid)
		}
		if _, ok := states[tid]; !ok {
			return fmt.Errorf("core: snapshot log entry %d targets task %d, which has no state", i, tid)
		}
		if c < 0 || c >= t.NumChoices() {
			return fmt.Errorf("core: snapshot log entry %d has choice %d out of range", i, c)
		}
		if seen[tid] == nil {
			seen[tid] = make(map[int]bool)
		}
		if seen[tid][wi] {
			return fmt.Errorf("core: snapshot log repeats worker %q on task %d", lg.Workers[wi], tid)
		}
		seen[tid][wi] = true
		a := model.Answer{Worker: lg.Workers[wi], Task: tid, Choice: c}
		log[i] = a
		byTask[tid] = append(byTask[tid], a)
	}

	// Worker statistics and serving state.
	workerStats := make(map[string]*truth.Stats, len(snap.Workers))
	for _, ws := range snap.Workers {
		st, err := validStats(ws, snap)
		if err != nil {
			return err
		}
		if _, dup := workerStats[ws.ID]; dup {
			return fmt.Errorf("core: snapshot repeats worker %q", ws.ID)
		}
		workerStats[ws.ID] = st
	}
	anchors := make(map[string]*truth.Stats)
	for _, ws := range snap.Serving {
		if len(ws.GoldenTasks) != len(ws.GoldenChoices) {
			return fmt.Errorf("core: snapshot serving state for %q has mismatched golden columns", ws.ID)
		}
		if ws.Anchored {
			a, err := validStats(snapshot.WorkerStats{ID: ws.ID, Q: ws.AnchorQ, U: ws.AnchorU}, snap)
			if err != nil {
				return fmt.Errorf("core: snapshot anchor: %w", err)
			}
			anchors[ws.ID] = a
		}
		for i, tid := range ws.GoldenTasks {
			t, ok := byID[tid]
			if !ok || !golden[tid] {
				return fmt.Errorf("core: snapshot golden answer for %q targets non-golden task %d", ws.ID, tid)
			}
			if c := ws.GoldenChoices[i]; c < 0 || c >= t.NumChoices() {
				return fmt.Errorf("core: snapshot golden answer for %q has choice out of range", ws.ID)
			}
		}
	}
	storeStats := make([]storeEntry, 0, len(snap.Store))
	for _, ws := range snap.Store {
		st, err := validStats(ws, snap)
		if err != nil {
			return err
		}
		storeStats = append(storeStats, storeEntry{id: ws.ID, st: st})
	}
	storeProfiles := make([]storeEntry, 0, len(snap.StoreProfiles))
	for _, ws := range snap.StoreProfiles {
		st, err := validStats(ws, snap)
		if err != nil {
			return err
		}
		if ws.ID == "" {
			return fmt.Errorf("core: snapshot store profile with empty ID")
		}
		storeProfiles = append(storeProfiles, storeEntry{id: ws.ID, st: st})
	}
	if (len(storeStats) > 0 || len(storeProfiles) > 0) && s.store.Persistent() {
		// A snapshot taken over a memory-only store cannot restore into a
		// persistent one: the persistent store is its own source of truth.
		return fmt.Errorf("core: snapshot carries store state but the store is persistent")
	}

	// --- mutation phase: nothing below can fail ---
	s.mu.Lock()
	err := s.installPublication(tasks, byID, golden)
	s.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("core: snapshot restore: %v", err)) // virgin engine, validated tasks
	}
	s.publishSeq.Store(snap.PublishSeq)
	for _, ts := range snap.TaskStates {
		if err := s.inc.RestoreTask(truth.TaskState(ts), byTask[ts.ID]); err != nil {
			panic(fmt.Sprintf("core: snapshot restore: %v", err)) // dimensions validated above
		}
	}
	statIDs := make([]string, 0, len(workerStats))
	for id := range workerStats {
		statIDs = append(statIDs, id)
	}
	sort.Strings(statIDs)
	for _, id := range statIDs {
		_ = s.inc.SetWorker(id, workerStats[id])
	}
	for _, ws := range snap.Serving {
		sh := s.shard(ws.ID)
		sh.mu.Lock()
		state := sh.state(ws.ID)
		state.profiled = ws.Profiled
		state.anchor = anchors[ws.ID]
		for i, tid := range ws.GoldenTasks {
			state.goldenAnswers = append(state.goldenAnswers,
				model.Answer{Worker: ws.ID, Task: tid, Choice: ws.GoldenChoices[i]})
		}
		sh.mu.Unlock()
	}
	// Each worker's answered-task set is her projection of the log.
	for _, a := range log {
		sh := s.shard(a.Worker)
		sh.mu.Lock()
		sh.state(a.Worker).answered[a.Task] = true
		sh.mu.Unlock()
	}
	for _, e := range storeStats {
		_ = s.store.Put(e.id, e.st)
	}
	for _, e := range storeProfiles {
		_ = s.store.SetProfile(e.id, e.st)
	}
	s.logMu.Lock()
	s.log = log
	s.logMu.Unlock()
	s.submissions.Store(snap.Answers)

	// Resync openness from the restored truth snapshots, so tasks already at
	// their redundancy cap start closed.
	s.index.Load().resync(s.cfg.AnswersPerTask)
	return nil
}

type storeEntry struct {
	id string
	st *truth.Stats
}

// validStats turns codec worker statistics into validated engine form: the
// snapshot's defaults (BaseQ, +0) over its M domains with the listed
// entries written in.
func validStats(ws snapshot.WorkerStats, snap *snapshot.State) (*truth.Stats, error) {
	st := &truth.Stats{Q: make(model.QualityVector, snap.M), U: make([]float64, snap.M)}
	for k := range st.Q {
		st.Q[k] = snap.BaseQ
	}
	err := ws.Q.Scatter(st.Q)
	if err == nil {
		err = ws.U.Scatter(st.U)
	}
	if err == nil {
		err = st.Validate(snap.M)
	}
	if err != nil {
		return nil, fmt.Errorf("core: snapshot worker %q: %w", ws.ID, err)
	}
	return st, nil
}

// loadUsableSnapshot reads dir's snapshot and applies the trust guard: a
// snapshot claiming to cover sequences past the durable log's tail (what a
// power loss under SyncNever can leave) is rejected. Returns the snapshot
// (nil when none exists or it was rejected) and the loud rejection reason
// (empty when absent or usable).
func loadUsableSnapshot(dir string) (*snapshot.State, string) {
	snap, err := snapshot.Read(dir)
	if err != nil {
		return nil, err.Error()
	}
	if snap == nil {
		return nil, ""
	}
	tail, err := wal.TailSeq(dir)
	if err != nil {
		return nil, err.Error()
	}
	if snap.Seq > tail {
		return nil, fmt.Sprintf("snapshot covers seq %d but the durable log ends at %d", snap.Seq, tail)
	}
	return snap, ""
}

// --- the snapshot pass (Hibernate runs it) ---

// unsnapshottedAnswers reports whether an answer-bearing record lies past
// the newest snapshot — the one test for "a pass has something to do". A
// suffix of publication and seeds replays without running inference, in
// time linear in what it installs (a worker is seeded at most twice per
// campaign, so seeds do not pile up); a snapshot of it would only repeat
// the log.
func (s *System) unsnapshottedAnswers() bool { return s.answerSeq.Load() > s.snapSeq.Load() }

// snapshotPass boots a scratch serial replica from the WAL directory —
// the same replay a restarting process runs — and atomically replaces the
// snapshot file with the replica's state. Nothing of the replica outlives
// the pass, so a failed pass leaves nothing behind to repair: the next one
// boots afresh and surfaces the real error again. With no answer past the
// newest snapshot the pass returns before building anything.
func (s *System) snapshotPass() error {
	if !s.unsnapshottedAnswers() {
		return nil
	}
	cfg := s.cfg
	cfg.KB = s.kb
	cfg.AsyncRerun = false // no rerun worker: replay reruns synchronously anyway
	cfg.LeaseTTL = 0       // the replica never serves requests
	// A persistent store is shared (replayed merges are idempotent by profile
	// ID); a memory-only one is derived state, so the replica rebuilds its
	// own exactly as a booting replay would and the snapshot carries it.
	cfg.Store = nil
	if s.store.Persistent() {
		cfg.Store = s.store
	}
	r, err := New(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	r.rerunFault = s.passRerunFault
	info, err := r.replay(s.walDir)
	if err != nil {
		return err
	}
	// Everything the snapshot covers must be power-loss durable before the
	// snapshot can become the boot source.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	if err := snapshot.Write(s.walDir, r.exportState(info.LastSeq)); err != nil {
		return err
	}
	s.snapSeq.Store(info.LastSeq)
	return nil
}
