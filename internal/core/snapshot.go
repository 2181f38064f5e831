// State snapshots: the truth engine's numbers at a WAL sequence, so a boot
// can skip the math that produced them.
//
// Recovery has one path: replay applies every record from sequence 1
// through the ordinary serving path. A snapshot only lets it skip, for the
// answers the snapshot covers, the engine math its install overwrites (see
// replay). The numbers must be exactly the serial replay's, and the live
// System is in that state: its writer applies every record, periodic
// reruns included, as the replay applies it. So a snapshot pass exports
// the live engine on the writer's last call: its numbers — every float as
// raw bits — go into an atomically-replaced snapshot file keyed by the WAL
// sequence it covers. The crash-injection suite asserts at every kill
// point that a boot with the snapshot and one without reach the same state
// bit for bit, and the oracle that booted a scratch replica of the log
// instead (snapshotReplica, in a test) is held byte-identical to the pass.
//
// Hibernate is the only caller of a pass. A crash or error before its
// write lands costs the next wake time, never state (see
// docs/multi-campaign.md, "Hibernation").
package core

import (
	"fmt"

	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/truth"
	"docs/internal/wal"
)

// exportState serializes the truth engine's numbers at the given WAL
// sequence. On the writer, or on a system nothing mutates.
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
	c := s.pub.Load()
	prev := -1 // task IDs are non-negative
	for _, ts := range snap.TaskStates {
		p, ok := c.position(ts.ID)
		if !ok || c.golden[p] || ts.ID <= prev {
			return nil, fmt.Errorf("core: snapshot state for unknown, golden, repeated or out-of-order task %d", ts.ID)
		}
		prev = ts.ID
		t := c.ci.row(p)
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
// the covered answers reach a rerun boundary.
//
//docs:deterministic
func (s *System) installSnapshot(snap *snapshot.State, workers map[string]*truth.Stats) {
	if z := int64(s.cfg.RerunEvery); z > 0 && s.submissions.Load() >= z {
		s.inc.ReseedLatent()
	}
	c := s.pub.Load()
	for _, ts := range snap.TaskStates {
		p, _ := c.position(ts.ID)
		s.inc.RestoreTask(c.ci.row(p), &c.ci.slots[p], truth.TaskState(ts))
	}
	for _, ws := range snap.Workers {
		_ = s.inc.SetWorker(ws.ID, workers[ws.ID])
	}
	c.ci.resync(s.cfg.AnswersPerTask)
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

// Hibernate closes the system like Close, but first, in the same last call
// of the writer, makes the WAL power-loss durable and writes a final
// snapshot if an answer lies past the newest one, so the next Recover runs
// no answer's math. It returns an error when the snapshot could not be
// written; the system is closed and its state durable in the WAL either
// way. Requires an armed WAL: a memory-only campaign would be gone.
func (s *System) Hibernate() error {
	if s.wal == nil {
		return fmt.Errorf("core: Hibernate needs an armed WAL")
	}
	return s.shut(func() error {
		err := s.wal.Sync()
		if err == nil {
			err = s.snapshotPass()
		}
		if err != nil {
			return fmt.Errorf("core: hibernate snapshot: %w", err)
		}
		return nil
	})
}

// snapshotPass atomically replaces the snapshot file with the live
// engine's numbers at the log's tail. It runs where nothing mutates the
// campaign — Hibernate's last call of the writer, which has applied every
// record it reserved — so the state it exports is the serial replay of the
// log through that tail. A failed pass writes nothing and moves nothing:
// the next one exports afresh. With no answer past the newest snapshot the
// pass writes nothing: a suffix of publication and seeds replays without
// running inference, in time linear in what it installs, and a snapshot of
// it would only repeat the log.
func (s *System) snapshotPass() error {
	if s.answerSeq.Load() <= s.snapSeq.Load() {
		return nil
	}
	// Everything the snapshot covers must be power-loss durable before the
	// snapshot can become the boot source.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	seq := s.wal.LastSeq()
	if err := snapshot.Write(s.walDir, s.exportState(seq)); err != nil {
		return err
	}
	s.snapSeq.Store(seq)
	return nil
}
