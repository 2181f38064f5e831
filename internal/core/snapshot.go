// State snapshots: the truth engine's numbers at a WAL sequence, so a boot
// can skip the math that produced them.
//
// Recovery has one path: replay applies every record from sequence 1
// through the ordinary serving path. A snapshot only lets it skip, for the
// answers the snapshot covers, the engine math its install overwrites (see
// replay). The numbers must be exactly the serial replay's, and the live
// system, serving concurrently (and possibly rerunning inference
// asynchronously), is NOT in that state, so the live System is never
// serialized: a snapshot pass is a scratch boot. It builds a virgin serial
// System, replays the WAL directory into it exactly as Recover would,
// writes the replica's engine numbers — every float as raw bits — into an
// atomically-replaced snapshot file keyed by the WAL sequence it covers,
// and drops the replica. The crash-injection suite asserts at every kill
// point that a boot with the snapshot and one without reach the same state
// bit for bit.
//
// Hibernate is the only caller of a pass. It costs one boot and holds a
// second copy of the campaign's state only while it runs.
package core

import (
	"fmt"

	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/truth"
	"docs/internal/wal"
)

// exportState serializes the truth engine's numbers at the given WAL
// sequence. The system must be quiescent (a pass's scratch replica, or a
// freshly recovered system before serving).
//
// A snapshot is compared bit-for-bit across boots, so this is a docs-lint
// determinism root: every float travels as raw bits, in sorted order.
//
//docs:deterministic
func (s *System) exportState(seq uint64) *snapshot.State {
	st := &snapshot.State{Seq: seq, M: s.m, BaseQ: truth.DefaultQuality}
	// Only the materialised tasks: every other one is latent, at the rest
	// state the log says (installSnapshot).
	for _, ts := range s.inc.ExportTasks() {
		st.TaskStates = append(st.TaskStates, snapshot.TaskState(ts))
	}
	for _, w := range s.inc.Workers() {
		st.Workers = append(st.Workers, codecStats(w, s.inc.Worker(w)))
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

// checkSnapshot holds a snapshot against the publication the replay has
// just installed and returns the install the replay runs when it reaches
// snap.Seq: every task state for a known non-golden task, in ascending ID
// order as ExportTasks writes them (so at most once), with the rows of its
// support and one column per choice; every worker at most once, with valid
// statistics. It changes nothing, so a refused snapshot leaves a full replay
// to carry on.
func (s *System) checkSnapshot(snap *snapshot.State, publishSeq uint64) (install func(), err error) {
	if snap.M != s.m {
		return nil, fmt.Errorf("core: snapshot holds statistics over %d domains, want %d", snap.M, s.m)
	}
	if snap.Seq < publishSeq {
		return nil, fmt.Errorf("core: snapshot covers seq %d, before publish record %d", snap.Seq, publishSeq)
	}
	s.mu.RLock()
	order, golden := s.taskOrder, s.golden
	s.mu.RUnlock()
	ci := s.index.Load()
	prev := -1 // task IDs are non-negative
	for _, ts := range snap.TaskStates {
		p, ok := order.position(ts.ID)
		if !ok || golden[p] || ts.ID <= prev {
			return nil, fmt.Errorf("core: snapshot state for unknown, golden, repeated or out-of-order task %d", ts.ID)
		}
		prev = ts.ID
		t := ci.row(p)
		// The codec guarantees every M̂ row is len(S) long. Which domains
		// the rows stand for is the publication's to say: a row count that
		// is not the support's would index the matrix wrongly.
		if rows := t.R.Support(); len(ts.MHat) != rows || len(ts.S) != int(t.Ell) {
			return nil, fmt.Errorf("core: snapshot task %d state is %d×%d, want the %d rows of its support × %d choices",
				ts.ID, len(ts.MHat), len(ts.S), rows, t.Ell)
		}
	}
	workers := make(map[string]*truth.Stats, len(snap.Workers))
	for _, ws := range snap.Workers {
		st, err := validStats(ws, snap)
		if err != nil {
			return nil, err
		}
		if workers[ws.ID] != nil {
			return nil, fmt.Errorf("core: snapshot repeats worker %q", ws.ID)
		}
		workers[ws.ID] = st
	}
	return func() { s.installSnapshot(snap, workers) }, nil
}

// installSnapshot overwrites the engine with a checked snapshot's numbers:
// the rest state, then each task state over the answers the replay has put
// in its V(i), then each worker's statistics, then the index's openness.
// The answers up to snap.Seq skipped the engine's math (skipIngest), so
// this is where their effect lands. The snapshot lists materialised tasks
// only; every other one rests where the log says — at the reseeded rest once
// the covered answers reach a rerun boundary. A snapshot written before
// tasks were latent also lists the tasks a rerun left unanswered, at that
// rest state: they stay latent (RestoreTask).
//
//docs:deterministic
func (s *System) installSnapshot(snap *snapshot.State, workers map[string]*truth.Stats) {
	if z := int64(s.cfg.RerunEvery); z > 0 && s.submissions.Load() >= z {
		s.inc.ReseedLatent()
	}
	s.mu.RLock()
	order := s.taskOrder
	s.mu.RUnlock()
	ci := s.index.Load()
	for _, ts := range snap.TaskStates {
		p, _ := order.position(ts.ID)
		s.inc.RestoreTask(ci.row(p), &ci.slots[p], truth.TaskState(ts))
	}
	for _, ws := range snap.Workers {
		_ = s.inc.SetWorker(ws.ID, workers[ws.ID])
	}
	s.index.Load().resync(s.cfg.AnswersPerTask)
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
	cfg.Store = s.store    // a replayed profiling merge finds its ID and changes nothing
	r, err := New(cfg)
	if err != nil {
		return err
	}
	defer r.Close()
	r.rerunFault, r.eagerInstall = s.passRerunFault, s.eagerInstall
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
