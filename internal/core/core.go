// Package core is the DOCS orchestrator: it wires the three modules of
// Figure 1 — Domain Vector Estimation, Truth Inference and Online Task
// Assignment — into the request/submit loop a crowdsourcing platform
// drives. A requester publishes tasks; DVE computes each task's domain
// vector against the knowledge base; golden tasks are selected to profile
// new workers; arriving workers are served either golden tasks (first
// visit) or the k highest-benefit tasks (OTA); submitted answers flow
// through incremental truth inference, with the full iterative solver
// re-run every RerunEvery submissions; and finally the inferred truths are
// returned and each worker's session statistics are held in the long-run
// store per Theorem 1.
//
// # Concurrency model
//
// The system serves Request, Submit and Result concurrently. The campaign
// structure (tasks, golden set) is guarded by an RWMutex that is only
// write-locked during Publish; per-worker serving state (golden answers,
// profiling, answered sets) lives in sharded maps so workers do not contend
// with each other; answer ingest goes through the truth engine's per-task
// locks; and reads (Request, Result, WorkerQuality) are served from the
// truth engine's immutable snapshots without blocking writers. Assignment
// candidates come from a live index of the open-task set (maintained
// incrementally as answers arrive, published as an epoch-versioned
// immutable array — see index.go) rather than a per-request scan over all
// tasks, and Config.LeaseTTL bounds outstanding assignments per task and
// per worker (see lease.go). The periodic
// batch re-inference runs synchronously on the Submit path by default
// (preserving the seed's deterministic serial behavior) or, with
// Config.AsyncRerun, on a background worker that infers over an answer-log
// snapshot and swaps the result back in atomically per task.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"docs/internal/assign"
	"docs/internal/dve"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/shard"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// Config configures a System.
type Config struct {
	// KB is the knowledge base; nil selects the curated default.
	KB *kb.KB
	// Store persists worker statistics across campaigns; nil keeps a
	// memory-only store.
	Store *store.Store
	// GoldenCount is the number of golden tasks selected from the published
	// tasks that carry ground truth (default assign.DefaultGoldenCount).
	GoldenCount int
	// HITSize is k, the number of tasks per assignment (default
	// assign.DefaultBatchSize).
	HITSize int
	// AnswersPerTask caps redundancy per task; 0 means unlimited.
	AnswersPerTask int
	// RerunEvery re-runs the full iterative TI every z submissions
	// (default 100, the paper's z). Non-positive disables periodic reruns.
	RerunEvery int
	// AsyncRerun moves the periodic full re-inference off the Submit path
	// onto a background worker. Submits then never block on the iterative
	// solver; the rerun infers over a snapshot of the answer log and its
	// result is swapped in atomically, skipping tasks that received answers
	// after the snapshot. The default (false) reruns synchronously inside
	// Submit, which serial callers rely on for exact reproducibility.
	AsyncRerun bool
	// WALSegmentBytes overrides the WAL segment rotation size (0 = the wal
	// package default).
	WALSegmentBytes int64
	// WALSync selects the WAL durability level (default group-commit
	// writes without per-batch fsync; see wal.SyncPolicy).
	WALSync wal.SyncPolicy
	// LeaseTTL arms assignment leases: every task served on the OTA path
	// is leased to the worker until they answer it or the TTL elapses. A
	// worker re-requesting before submitting gets disjoint tasks, and with
	// a redundancy cap a task's open slots shrink by its live leases, so
	// concurrent traffic cannot over-assign it far past AnswersPerTask.
	// Zero disables leases (the seed behavior). Leases are serving-only
	// state, never WAL'd; see docs/assignment.md for the recovery caveat.
	LeaseTTL time.Duration
	// Clock supplies the lease clock (nil = time.Now). Tests inject a fake
	// clock to drive TTL expiry deterministically, with no sleeps.
	Clock func() time.Time
	// ProfileScope namespaces this campaign's golden-profiling merges in
	// the shared long-run store: each worker's profiling merge is recorded
	// under ProfileScope+"/"+worker and applied exactly once no matter how
	// often the campaign's log replays (crash recovery, snapshot passes).
	// The registry passes the campaign name; a standalone System may leave
	// it empty (the bare "/" namespace). Campaigns sharing one persistent
	// store MUST use distinct scopes, or one campaign's replay would treat
	// another campaign's profiling of the same worker as its own.
	ProfileScope string
}

// workerShardCount shards per-worker serving state.
const workerShardCount = shard.Count

// workerState is everything the orchestrator tracks per worker: her golden
// answers and profiling status, the set of regular tasks she answered
// (T(w), used to exclude tasks from her next assignment), and her anchor —
// the long-run statistics pinned when she was profiled or first seeded
// from the store. Rerun initialization reads the anchor instead of the
// live store (initQuality): the store keeps evolving under concurrent
// campaigns, and a time-of-rerun store read is exactly the kind of
// unlogged float input that made recovered state drift from live state.
type workerState struct {
	goldenAnswers []model.Answer
	profiled      bool
	answered      map[int]bool
	anchor        *truth.Stats
}

type workerShard struct {
	mu      sync.Mutex
	workers map[string]*workerState
}

// System is a running DOCS campaign.
type System struct {
	// mu guards the campaign structure: it is write-locked only by Publish;
	// every serving path takes the read side.
	mu sync.RWMutex

	kb        *kb.KB
	linker    *entitylink.Linker
	m         int
	store     *store.Store
	ownsStore bool // New created the store, so Close releases it
	cfg       Config

	tasks      []*model.Task // published, with domain vectors
	byID       map[int]*model.Task
	golden     map[int]bool  // task IDs serving as golden tasks
	goldenList []*model.Task // golden tasks in publication order

	inc *truth.Incremental

	// index is the live candidate index: the open-task set in publication
	// order, maintained incrementally as answers arrive and published as an
	// epoch-versioned immutable array (built once by Publish; atomic so
	// stats and pre-publish requests race-freely observe "no index yet").
	index atomic.Pointer[candidateIndex]
	// leases tracks outstanding assignments when Config.LeaseTTL is set
	// (nil otherwise). Created in New, before serving.
	leases *leaseTable

	shards [workerShardCount]workerShard

	// logMu guards the chronological answer log — the only globally ordered
	// write structure left on the Submit path (a single slice append) — and,
	// when a WAL is armed, the WAL reservation that must share its order.
	logMu sync.Mutex
	log   []model.Answer

	// wal fields are written once by Recover, before serving starts.
	wal        *wal.Log
	walDir     string
	recovering bool // replay is in flight: no re-logging, no store seeds, sync reruns
	recovery   RecoveryInfo

	submissions atomic.Int64
	// batches / batchAnswers count KindBatch group records and the answers
	// inside them — bumped where a group is reserved (batchGroup.flush) and
	// where one is replayed (applyRecord), so the counters survive recovery
	// like submissions does. Neither enters the fingerprint:
	// batched and one-by-one traffic producing the same answer stream are
	// the same campaign.
	batches      atomic.Int64
	batchAnswers atomic.Int64
	reruns       atomic.Int64
	rerunErrs    atomic.Int64

	// snapSeq is the WAL sequence covered by the newest state snapshot this
	// process wrote or booted from.
	snapSeq atomic.Uint64
	// answerSeq is the WAL sequence of the last answer-bearing record
	// (KindAnswer, KindBatch) this process logged or replayed: a snapshot
	// pass has work to do only while it lies past snapSeq.
	answerSeq atomic.Uint64
	// publishSeq is the WAL sequence of the record that carries the
	// publication (0 until one is logged or replayed): a state snapshot
	// names that record instead of repeating its contents.
	publishSeq atomic.Uint64
	// rerunFrom is, during replay, the last rerun boundary the replayed log
	// reaches (replay sets it, 0 otherwise): a rerun is a pure function of
	// its answer prefix and the pinned anchors, so it overwrites every rerun
	// before it, and replay skips the boundaries below this one.
	rerunFrom int64

	rerunMu   sync.Mutex // serializes batch re-inference runs
	resultsMu sync.Mutex // serializes Results; guards scope
	scope     string     // Results' store scope: ProfileScope, or minted
	// rerunFault, when set (tests only), is invoked at the top of every
	// rerun attempt; a non-nil return fails the rerun — the seam the
	// failed-rerun regression test injects through.
	rerunFault func() error
	// passRerunFault (tests only) is installed as the rerunFault of every
	// snapshot pass's scratch replica.
	passRerunFault func() error
	// publishFault, when set (tests only), is invoked before DVE runs over
	// each chunk of a publication; a non-nil return fails that chunk.
	publishFault func(chunk int) error
	// packFault, when set (tests only), is invoked after the packer; a
	// non-nil return fails the pack.
	packFault func() error
	// scanAssign, when set (tests only, before any traffic), routes
	// requests through assignScan — the oracle the indexed path is held
	// bit-identical to.
	scanAssign bool
	rerunCh    chan struct{}
	quit       chan struct{}
	wg         sync.WaitGroup
	closed     sync.Once

	assigners sync.Pool
}

// New creates a System from the config.
func New(cfg Config) (*System, error) {
	k := cfg.KB
	if k == nil {
		var err error
		k, err = kb.Default()
		if err != nil {
			return nil, err
		}
	}
	st := cfg.Store
	ownsStore := false
	if st == nil {
		var err error
		st, err = store.Open("", k.Domains().Size())
		if err != nil {
			return nil, err
		}
		ownsStore = true
	}
	if cfg.GoldenCount == 0 {
		cfg.GoldenCount = assign.DefaultGoldenCount
	}
	if cfg.HITSize <= 0 {
		cfg.HITSize = assign.DefaultBatchSize
	}
	if cfg.RerunEvery == 0 {
		cfg.RerunEvery = 100
	}
	m := k.Domains().Size()
	s := &System{
		kb:        k,
		linker:    entitylink.New(k),
		m:         m,
		store:     st,
		ownsStore: ownsStore,
		cfg:       cfg,
		scope:     cfg.ProfileScope,
		inc:       truth.NewIncremental(m),
		rerunCh:   make(chan struct{}, 1),
		quit:      make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i].workers = make(map[string]*workerState)
	}
	if cfg.LeaseTTL > 0 {
		s.leases = newLeaseTable(cfg.LeaseTTL, cfg.Clock)
	}
	s.assigners.New = func() any { return new(assign.Assigner) }
	if cfg.AsyncRerun && cfg.RerunEvery > 0 {
		s.wg.Add(1)
		go s.worker(s.rerunCh, func() {
			if err := s.runRerun(); err != nil {
				s.rerunErrs.Add(1)
			}
		})
	}
	return s, nil
}

// Close stops the background rerun worker (a pending request is drained
// first) and then flushes, fsyncs and closes the WAL, so a graceful
// shutdown loses nothing regardless of sync policy. A store
// this System created (rather than received via Config.Store) is released
// too; a caller-provided store stays open — the caller may share it.
// Serving methods must not be called after Close.
func (s *System) Close() error {
	s.closed.Do(func() { close(s.quit) })
	s.wg.Wait()
	var err error
	if s.wal != nil {
		err = s.wal.Close()
	}
	if s.ownsStore {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// worker is the background rerun loop: run pass once per nudge until the
// system quits. A nudge that raced the shutdown is drained first, so
// Close's "pending requests run first" contract holds.
func (s *System) worker(nudge <-chan struct{}, pass func()) {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			select {
			case <-nudge:
				pass()
			default:
			}
			return
		case <-nudge:
			pass()
		}
	}
}

func (s *System) shard(workerID string) *workerShard {
	return &s.shards[shard.Index(workerID, workerShardCount)]
}

// state returns the worker's serving state, creating it if absent. Callers
// hold the shard lock.
func (sh *workerShard) state(workerID string) *workerState {
	ws, ok := sh.workers[workerID]
	if !ok {
		ws = &workerState{answered: make(map[int]bool)}
		sh.workers[workerID] = ws
	}
	return ws
}

// Domains returns the system's domain set.
func (s *System) Domains() *model.DomainSet { return s.kb.Domains() }

// ValidateTasks is the structural half of Publish's validation, the half
// that needs neither a campaign nor DVE: no task ID twice, every task's
// own invariants (at least two choices, truth in range, a requester-supplied
// domain vector well-formed) over a domain set of size m, and a batch one
// log record can hold whatever vectors DVE gives it. A server calls it
// before it creates a campaign for a publication, so a batch Publish would
// reject leaves no empty campaign behind.
func ValidateTasks(tasks []*model.Task, m int) error {
	_, err := tasksByID(tasks, m)
	return err
}

// tasksByID validates the batch and returns it indexed by task ID.
func tasksByID(tasks []*model.Task, m int) (map[int]*model.Task, error) {
	byID := make(map[int]*model.Task, len(tasks))
	for _, t := range tasks {
		if _, dup := byID[t.ID]; dup {
			return nil, fmt.Errorf("core: duplicate task ID %d", t.ID)
		}
		if err := t.Validate(m); err != nil {
			return nil, err
		}
		byID[t.ID] = t
	}
	if err := checkPublicationSize(tasks, m); err != nil {
		return nil, err
	}
	return byID, nil
}

// Publish runs DVE over the tasks, selects golden tasks among those with
// ground truth, and opens the campaign. Tasks without a precomputed Domain
// get one from the DVE pipeline (entity linking + Algorithm 1); tasks the
// requester already annotated keep their vector. DVE runs on every core, the
// durable record's packing streams behind it (linkAndPack), and golden
// selection and the install run beside the rest of the pack; a pack failure
// then is ErrDurability.
func (s *System) Publish(tasks []*model.Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tasks) > 0 {
		return fmt.Errorf("core: tasks already published")
	}
	// Validate the whole batch into a local map before mutating any
	// campaign state: a rejected task must leave the system exactly as it
	// was, so the requester can fix the batch and re-publish (a partial
	// insert would make the retry fail on its own leftovers). The
	// structural pass comes first and whole, so a batch it rejects has cost
	// no domain vector.
	byID, err := tasksByID(tasks, s.m)
	if err != nil {
		return err
	}
	// DVE ends while a rejection still leaves the campaign unpublished. The
	// record fits one WAL record (tasksByID held the batch to that with every
	// vector at its largest) and its tasks have passed Validate.
	record, err := s.linkAndPack(tasks, s.wal != nil)
	if err != nil {
		return err
	}
	// Golden tasks: choose among tasks with known ground truth so a new
	// worker's answers can be scored (Section 5.2).
	var withTruth []*model.Task
	for _, t := range tasks {
		if t.Truth != model.NoTruth {
			withTruth = append(withTruth, t)
		}
	}
	golden := make(map[int]bool)
	if n := s.cfg.GoldenCount; n > 0 && len(withTruth) > 0 {
		for _, idx := range assign.SelectGolden(withTruth, n, s.m) {
			golden[withTruth[idx].ID] = true
		}
	}
	installErr := s.installPublication(tasks, byID, golden)
	blob, err := record()
	if installErr != nil {
		return installErr
	}
	if err != nil {
		return fmt.Errorf("core: %w: publication record: %v", ErrDurability, err)
	}

	// Log the publication — tasks with their DVE-computed domain vectors —
	// so recovery does not depend on re-running entity linking against a
	// possibly different knowledge-base build. Campaign structure is
	// settled at this point; a failure below only voids durability.
	if s.wal != nil {
		s.logMu.Lock()
		p, err := s.walReserve(wal.Record{Kind: wal.KindPublish, Blob: blob})
		s.logMu.Unlock()
		if err != nil {
			return err
		}
		s.publishSeq.Store(p.Seq())
		return s.walCommit(p)
	}
	return nil
}

// installPublication makes tasks the campaign's task set with the given
// golden subset — the one place a task set becomes serving state, for a
// live Publish and for a snapshot restore alike. Golden tasks go to the
// golden list; every other task enters the incremental truth-inference
// engine and the live candidate index, in publication order (the order the
// assignment tie-break is defined over). Each candidate carries a
// lock-free view handle so a request never touches the task maps; with
// leases armed, each task gets its lease counter here, before serving can
// observe the campaign. Callers hold s.mu and have validated the tasks.
func (s *System) installPublication(tasks []*model.Task, byID map[int]*model.Task, golden map[int]bool) error {
	s.tasks, s.byID, s.golden = tasks, byID, golden
	open := make([]*model.Task, 0, len(tasks))
	for _, t := range tasks {
		if golden[t.ID] {
			s.goldenList = append(s.goldenList, t)
		} else {
			open = append(open, t)
		}
	}
	if err := s.inc.AddTask(open...); err != nil {
		return err
	}
	var leases []atomic.Int32 // one slab of lease counters
	if s.leases != nil {
		leases = make([]atomic.Int32, len(open))
		s.leases.counts = make(map[int]*atomic.Int32, len(open))
	}
	master := make([]candidate, len(open))
	for i, t := range open {
		master[i] = candidate{id: t.ID, domain: t.Domain, h: s.inc.Handle(t.ID)}
		if leases != nil {
			master[i].leases, s.leases.counts[t.ID] = &leases[i], &leases[i]
		}
	}
	s.index.Store(newCandidateIndex(master))
	return nil
}

// publishChunk is how many tasks make one chunk of Publish's pipeline.
const publishChunk = 64

// linkAndPack runs DVE over chunks of the tasks on up to GOMAXPROCS
// goroutines, this one among them (the knowledge base is finished and each
// task is its own), each reusing one workspace, and, when logged is set,
// packs the record behind them on one more (packRecord). It returns when
// every chunk is linked, with record to wait for the packer. Its error is
// the one a serial loop would meet first, and then no goroutine it started
// is left.
func (s *System) linkAndPack(tasks []*model.Task, logged bool) (record func() ([]byte, error), err error) {
	chunks := (len(tasks) + publishChunk - 1) / publishChunk
	errs, linked := make([]error, chunks), make([]chan struct{}, chunks)
	for c := range linked {
		linked[c] = make(chan struct{})
	}
	var blob []byte
	var packErr error
	var packer sync.WaitGroup
	if logged {
		packer.Add(1)
		go func() {
			defer packer.Done()
			blob, packErr = packRecord(tasks, s.m, func(c int) error { <-linked[c]; return errs[c] })
			if packErr == nil && s.packFault != nil {
				packErr = s.packFault()
			}
		}()
	}
	record = func() ([]byte, error) { packer.Wait(); return blob, packErr }
	var next atomic.Int64
	link := func() {
		var ws dve.Workspace
		for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
			errs[c] = s.linkChunk(c, tasks[c*publishChunk:min((c+1)*publishChunk, len(tasks))], &ws)
			close(linked[c])
		}
	}
	var linkers sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), chunks); w++ {
		linkers.Add(1)
		go func() { defer linkers.Done(); link() }()
	}
	link()
	linkers.Wait()
	for _, err := range errs {
		if err != nil {
			record() // the packer stops at the first failed chunk
			return nil, err
		}
	}
	return record, nil
}

// linkChunk runs DVE over one chunk's tasks that have no domain vector.
func (s *System) linkChunk(c int, tasks []*model.Task, ws *dve.Workspace) error {
	if s.publishFault != nil {
		if err := s.publishFault(c); err != nil {
			return err
		}
	}
	for _, t := range tasks {
		if t.Domain != nil {
			continue
		}
		t.Domain = ws.Vector(s.linker, t.Text, s.m)
		if err := t.Validate(s.m); err != nil {
			return err
		}
	}
	return nil
}

// Published reports whether the campaign's tasks are in place (directly or
// via WAL recovery).
func (s *System) Published() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tasks) > 0
}

// GoldenTasks returns the golden task IDs in publication order.
func (s *System) GoldenTasks() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.goldenList))
	for _, t := range s.goldenList {
		out = append(out, t.ID)
	}
	return out
}

// Request serves an arriving worker: a returning (or profiled) worker gets
// the k highest-benefit open tasks; a new worker is first served the
// golden tasks she has not answered yet. The returned tasks are in
// assignment order. Requests run concurrently with each other and with
// submits: the candidate set is one atomic load of the index's shared
// immutable array and task states are read from the truth engine's latest
// immutable snapshots, so a request never blocks answer ingest (and may be
// up to one submit stale, which OTA tolerates by design). With leases
// armed (Config.LeaseTTL) the served tasks are leased to the worker until
// answered or expired.
func (s *System) Request(workerID string, k int) ([]*model.Task, error) {
	if workerID == "" {
		return nil, fmt.Errorf("core: empty worker ID")
	}
	s.mu.RLock()
	tasks, golden, goldenList := s.tasks, s.golden, s.goldenList
	s.mu.RUnlock()
	if k <= 0 {
		k = s.cfg.HITSize
	}

	ready, err := s.workerReady(workerID, goldenList)
	if err != nil {
		// The worker's store-seed could not be promised durable; surface it
		// like any other durability failure instead of serving tasks whose
		// assignment depended on state recovery would not reconstruct.
		return nil, err
	}
	if !ready {
		// Serve unanswered golden tasks first.
		answered := s.goldenAnswered(workerID)
		var out []*model.Task
		for _, t := range goldenList {
			if len(out) >= k {
				break
			}
			if !answered[t.ID] {
				out = append(out, t)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
		// No golden tasks configured: fall through to OTA with defaults.
	}

	q := s.WorkerQuality(workerID)
	excluded := s.answeredSnapshot(workerID)
	// Leases: expire what is due, then exclude the tasks this worker
	// already holds, so a re-request before submitting gets disjoint tasks.
	var leased map[int]bool
	if s.leases != nil {
		leased = s.leases.beginRequest(workerID)
	}
	redundancy := s.cfg.AnswersPerTask
	as := s.assigners.Get().(*assign.Assigner)
	var ids []int
	if s.scanAssign {
		ids = s.assignScan(as, tasks, golden, excluded, leased, q, k, redundancy)
	} else {
		ids = s.assignIndexed(as, excluded, leased, q, k, redundancy)
	}
	s.assigners.Put(as)
	if s.leases != nil {
		s.leases.grant(workerID, ids)
	}
	out := make([]*model.Task, 0, len(ids))
	s.mu.RLock()
	for _, id := range ids {
		out = append(out, s.byID[id])
	}
	s.mu.RUnlock()
	return out, nil
}

// assignIndexed is the indexed OTA hot path: one atomic load of the shared
// immutable candidate array, then a streamed size-k heap over it. The only
// per-request allocations are the exclusion snapshots and the returned IDs
// — nothing proportional to campaign size. The per-candidate filter
// re-checks redundancy (and live leases) against the latest truth
// snapshot, so entries that closed since the last index compaction are
// skipped exactly as the full scan would skip them.
func (s *System) assignIndexed(as *assign.Assigner, excluded, leased map[int]bool, q model.QualityVector, k, redundancy int) []int {
	ci := s.index.Load()
	if ci == nil {
		return nil
	}
	arr := ci.load()
	if arr == nil || len(arr.entries) == 0 {
		return nil
	}
	entries := arr.entries
	return as.AssignFunc(len(entries), func(i int, ts *assign.TaskState) bool {
		c := &entries[i]
		if excluded[c.id] || leased[c.id] {
			return false
		}
		v := c.h.View()
		if v == nil {
			return false
		}
		if redundancy > 0 {
			open := redundancy - v.NumAnswers
			if c.leases != nil {
				open -= int(c.leases.Load())
			}
			if open <= 0 {
				return false
			}
		}
		// The view's M and S are immutable snapshots: OTA reads them
		// without copying or locking.
		ts.ID, ts.R, ts.M, ts.S = c.id, c.domain, v.M, v.S
		return true
	}, q, k)
}

// assignScan is the seed's per-request full scan: rebuild the candidate
// set from all tasks, materializing a TaskState slice proportional to
// campaign size. It survives behind the test-only scanAssign field as the
// equivalence oracle (TestIndexedAssignmentEquivalence): the indexed path
// must stay bit-identical to it on serial campaigns.
func (s *System) assignScan(as *assign.Assigner, tasks []*model.Task, golden map[int]bool, excluded, leased map[int]bool, q model.QualityVector, k, redundancy int) []int {
	backing := make([]assign.TaskState, 0, len(tasks))
	for _, t := range tasks {
		if golden[t.ID] || excluded[t.ID] || leased[t.ID] {
			continue
		}
		v := s.inc.View(t.ID)
		if v == nil {
			continue
		}
		if redundancy > 0 {
			open := redundancy - v.NumAnswers
			if s.leases != nil {
				open -= s.leases.taskLeases(t.ID)
			}
			if open <= 0 {
				continue
			}
		}
		backing = append(backing, assign.TaskState{ID: t.ID, R: t.Domain, M: v.M, S: v.S})
	}
	return as.AssignStates(backing, q, k, nil)
}

// Submit records a worker's answer. Golden-task answers feed the worker's
// quality profile; regular answers flow through incremental truth
// inference, with a periodic full iterative re-run every RerunEvery
// submissions (inline, or on the background worker with AsyncRerun).
func (s *System) Submit(workerID string, taskID, choice int) error {
	return s.submitOne(workerID, taskID, choice, nil)
}

// submitOne is the one answer-application path, shared by Submit and
// SubmitBatch. With g nil the answer reserves and commits its own WAL
// record (the single-submit behavior). With g non-nil, a regular answer
// defers durability into the group — it joins g's columns instead of being
// reserved, and the caller commits the whole group as ONE KindBatch frame —
// while a golden answer first flushes the group (group record ahead of the
// golden record in the durable order) and then commits individually, so the
// answer-durable-before-profiling-merge invariant documented below holds
// unchanged under batching. Everything else — validation, ingest, the
// chronological log append under logMu, the rerun cadence — is
// identical in both modes, which is what makes a batched stream's state
// bit-identical to the same answers submitted one by one
// (TestBatchSubmitEquivalence).
func (s *System) submitOne(workerID string, taskID, choice int, g *batchGroup) error {
	if workerID == "" {
		return fmt.Errorf("core: empty worker ID")
	}
	s.mu.RLock()
	t, ok := s.byID[taskID]
	isGolden := s.golden[taskID]
	goldenList := s.goldenList
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown task %d", taskID)
	}
	if choice < 0 || choice >= t.NumChoices() {
		return fmt.Errorf("core: choice %d out of range for task %d", choice, taskID)
	}
	a := model.Answer{Worker: workerID, Task: taskID, Choice: choice}

	if isGolden {
		// The group must be durable before (or with) anything that follows
		// it: flush it now so the golden record's reservation lands after
		// the group's, and the fsync wait happens before the shard lock.
		if g != nil {
			if err := g.flush(s); err != nil {
				return err
			}
		}
		sh := s.shard(workerID)
		sh.mu.Lock()
		ws := sh.state(workerID)
		for _, prev := range ws.goldenAnswers {
			if prev.Task == taskID {
				sh.mu.Unlock()
				return fmt.Errorf("core: worker %q already answered golden task %d", workerID, taskID)
			}
		}
		ws.goldenAnswers = append(ws.goldenAnswers, a)
		completesGauntlet := len(ws.goldenAnswers) == len(goldenList)
		// Reserve the WAL slot before releasing the shard lock: a worker's
		// golden answers must replay in the order profiling consumed them.
		s.logMu.Lock()
		p, err := s.walReserve(wal.Record{Kind: wal.KindAnswer, Worker: workerID, Task: taskID, Choice: choice})
		s.logMu.Unlock()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
		// The answer becomes durable BEFORE the profiling merge. The merge
		// is recorded under a campaign-scoped profile ID (MergeProfile), so
		// both crash orders are safe: a crash after the merge replays the
		// completing answer and finds the recorded ID (no double-count), and
		// a crash before the merge replays the completing answer into an
		// ID-less store and re-applies the merge bit-exactly (no loss). The
		// old "one bounded profiling merge can die with the process" window
		// is closed — TestCrashRecoversUnmergedProfiling pins the repair.
		if err := s.walCommit(p); err != nil {
			return err
		}
		if completesGauntlet {
			sh.mu.Lock()
			// Exactly one submit observes the gauntlet completing (the
			// duplicate check above serializes a worker's golden answers),
			// so profiling runs once.
			err = s.profileWorker(workerID, ws, goldenList)
			sh.mu.Unlock()
			return err
		}
		return nil
	}

	// Seed the worker's quality from the long-run store before her first
	// answer enters the incremental engine (logged, so replay re-seeds the
	// same bits rather than re-reading the store).
	if err := s.ensureWorker(workerID); err != nil {
		return err
	}
	// The truth engine's per-task lock is the authority on duplicate
	// answers; ingest updates only that task's state plus the touched
	// workers' shards, so submits to different tasks run in parallel.
	if err := s.inc.Submit(a); err != nil {
		return err
	}
	sh := s.shard(workerID)
	sh.mu.Lock()
	sh.state(workerID).answered[taskID] = true
	sh.mu.Unlock()
	// The accepted answer retires the worker's lease on the task and, once
	// redundancy is met, drops the task out of the candidate index.
	if s.leases != nil {
		s.leases.release(workerID, taskID)
	}
	if r := s.cfg.AnswersPerTask; r > 0 {
		if ci := s.index.Load(); ci != nil {
			if v := s.inc.View(taskID); v != nil {
				ci.noteAnswer(taskID, v.NumAnswers, r)
			}
		}
	}
	var p wal.Pending
	var walErr error
	s.logMu.Lock()
	s.log = append(s.log, a)
	// The WAL reservation shares logMu, so durable replay order is exactly
	// the chronological answer-log order the serial-replay equivalence is
	// proven against. The wait for the group-commit batch happens below,
	// outside the lock, so concurrent submits still share one write. A
	// batched answer defers even the reservation: it joins the group under
	// the same lock, and the group is reserved as one record at flush.
	if g != nil {
		g.cols.Add(workerID, taskID, choice)
	} else {
		p, walErr = s.walReserve(wal.Record{Kind: wal.KindAnswer, Worker: workerID, Task: taskID, Choice: choice})
	}
	s.logMu.Unlock()
	if walErr != nil {
		return walErr
	}

	n := s.submissions.Add(1)
	if z := s.cfg.RerunEvery; z > 0 && n%int64(z) == 0 && n >= s.rerunFrom {
		// During recovery the rerun must be synchronous regardless of
		// AsyncRerun: replay determinism is the whole point of the WAL.
		if s.cfg.AsyncRerun && !s.recovering {
			select {
			case s.rerunCh <- struct{}{}:
			default: // a rerun is already pending; it will cover this batch
			}
		} else if err := s.runRerun(); err != nil {
			return err
		}
	}
	return s.walCommit(p)
}

// Result returns the current inferred truth and probabilistic truth of a
// task (choice −1 for golden/unknown tasks, which are not inferred). It
// reads the latest immutable snapshot and never blocks submits.
func (s *System) Result(taskID int) (choice int, confidence []float64) {
	v := s.inc.View(taskID)
	if v == nil {
		return model.NoTruth, nil
	}
	return v.Truth, mathx.Clone(v.S)
}

// Results runs the rerun's inference and returns the final result (slices
// aligned with InferTasks). Each answering worker's session statistics
// over the regular answers (Theorem 1) replace her previous session under
// the campaign's scope in the long-run store, so an unchanged prefix writes
// nothing. Calls run one at a time from the answer snapshot to the last
// store write; submits continue concurrently.
func (s *System) Results() (*truth.Result, error) {
	s.resultsMu.Lock()
	defer s.resultsMu.Unlock()
	res, tasks, n, as, err := s.infer()
	if err != nil {
		return nil, err
	}
	if s.scope == "" {
		s.scope = s.store.MintScope()
	}
	sessions := truth.SessionStats(tasks[:n], as, res, s.m)
	for _, w := range as.Workers() {
		if err := s.store.Session(s.scope, w, sessions[w]); err != nil {
			return nil, err
		}
	}
	res.S, res.M, res.Truth = res.S[:n], res.M[:n], res.Truth[:n]
	return res, nil
}

// infer runs the full iterative TI, golden evidence pinned, over a snapshot
// of the answer log: a pure function of the answer prefix and the anchors.
// tasks are the n non-golden tasks, then the golden ones.
func (s *System) infer() (res *truth.Result, tasks []*model.Task, n int, as *model.AnswerSet, err error) {
	as = s.answersSnapshot()
	s.mu.RLock()
	inferTasks := s.inferTasksRLocked()
	s.mu.RUnlock()
	tasks, answers, pinned, err := s.combined(inferTasks, as)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	res, err = truth.Infer(tasks, answers, s.m, truth.Options{InitQuality: s.initQuality(as), Pinned: pinned})
	return res, tasks, len(inferTasks), as, err
}

// answersSnapshot rebuilds an AnswerSet from a point-in-time copy of the
// chronological answer log. Keeping the original submission order matters:
// several consumers accumulate floating-point sums over the per-task and
// per-worker slices, and a reordering would perturb results in the last ulp.
func (s *System) answersSnapshot() *model.AnswerSet {
	s.logMu.Lock()
	logCopy := append([]model.Answer(nil), s.log...)
	s.logMu.Unlock()
	as := model.NewAnswerSet()
	for _, a := range logCopy {
		// The log only ever holds answers the truth engine accepted, so
		// duplicates cannot occur here.
		if err := as.Add(a); err != nil {
			panic(fmt.Sprintf("core: corrupt answer log: %v", err))
		}
	}
	return as
}

// combined appends the golden tasks (with pinned truths) and the golden
// answers to the campaign's tasks and the given answer snapshot, anchoring
// inference. The input answer set is cloned, not mutated: callers keep
// using it as the regular-answers-only view (Reseed, initQuality and a
// session must not see golden evidence — it is already anchored into worker
// stats via golden profiling; folding it in again would double-count).
func (s *System) combined(inferTasks []*model.Task, answers *model.AnswerSet) ([]*model.Task, *model.AnswerSet, map[int]int, error) {
	s.mu.RLock()
	goldenList := s.goldenList
	s.mu.RUnlock()
	combined := inferTasks
	pinned := make(map[int]int)
	if len(goldenList) > 0 {
		combined = make([]*model.Task, len(inferTasks), len(inferTasks)+len(goldenList))
		copy(combined, inferTasks)
		for _, t := range goldenList {
			combined = append(combined, t)
			pinned[t.ID] = t.Truth
		}
		answers = answers.Clone()
		// Sorted worker order: golden answers must enter the answer set in
		// a fixed order, or per-task likelihood sums reorder between runs
		// and ulp-level differences flip assignment ties.
		golden := s.goldenAnswersByWorker()
		workers := make([]string, 0, len(golden))
		for w := range golden {
			workers = append(workers, w)
		}
		sort.Strings(workers)
		for _, w := range workers {
			for _, a := range golden[w] {
				if err := answers.Add(a); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	return combined, answers, pinned, nil
}

// goldenAnswersByWorker gathers every worker's golden answers across the
// shards.
func (s *System) goldenAnswersByWorker() map[string][]model.Answer {
	out := make(map[string][]model.Answer)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for w, ws := range sh.workers {
			if len(ws.goldenAnswers) > 0 {
				out[w] = append([]model.Answer(nil), ws.goldenAnswers...)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// InferTasks returns the non-golden tasks in publication order (the tasks
// Results infers over, in the same order as the result slices).
func (s *System) InferTasks() []*model.Task {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inferTasksRLocked()
}

// WorkerQuality returns the system's current quality estimate for a worker.
func (s *System) WorkerQuality(workerID string) model.QualityVector {
	if st := s.inc.Worker(workerID); st != nil {
		return st.Q // Worker returns a private copy
	}
	if st, ok := s.store.Worker(workerID); ok {
		return st.Q
	}
	q := make(model.QualityVector, s.m)
	for k := range q {
		q[k] = truth.DefaultQuality
	}
	return q
}

// Answers returns a snapshot of the collected non-golden answers.
func (s *System) Answers() *model.AnswerSet {
	return s.answersSnapshot()
}

// AnswerCount returns the number of accepted non-golden answers so far.
func (s *System) AnswerCount() int64 { return s.submissions.Load() }

// Epoch returns the truth engine's snapshot epoch: it increases with every
// accepted answer and every batch-rerun swap, so two equal reads bracket a
// quiescent system.
func (s *System) Epoch() uint64 { return s.inc.Epoch() }

// Reruns returns how many periodic batch re-inference runs have completed
// and how many failed.
func (s *System) Reruns() (completed, failed int64) {
	return s.reruns.Load(), s.rerunErrs.Load()
}

// OpenTasks returns the number of open (assignable) tasks in the candidate
// index: non-golden tasks still under their redundancy cap. Zero before
// Publish.
func (s *System) OpenTasks() int {
	if ci := s.index.Load(); ci != nil {
		return int(ci.openCount.Load())
	}
	return 0
}

// IndexEpoch returns the candidate index's generation counter: it advances
// every time a new immutable candidate array is published (the initial
// build, compactions, and post-rerun resyncs). Zero before Publish.
func (s *System) IndexEpoch() uint64 {
	if ci := s.index.Load(); ci != nil {
		return ci.epoch.Load()
	}
	return 0
}

// ActiveLeases returns the number of live assignment leases (always zero
// when Config.LeaseTTL is unset). The read itself processes due expiries,
// so an idle system — one receiving no requests, which are the other place
// lazy expiry runs — still reports zero once every TTL has elapsed rather
// than counting expired leases forever.
func (s *System) ActiveLeases() int64 {
	if s.leases != nil {
		return s.leases.activeNow()
	}
	return 0
}

// --- internal helpers ---

// inferTasksRLocked returns the non-golden tasks; callers hold s.mu (read
// side suffices — the slice is append-only after Publish).
func (s *System) inferTasksRLocked() []*model.Task {
	out := make([]*model.Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		if !s.golden[t.ID] {
			out = append(out, t)
		}
	}
	return out
}

// goldenAnswered returns the set of golden tasks the worker has answered.
func (s *System) goldenAnswered(workerID string) map[int]bool {
	out := make(map[int]bool)
	sh := s.shard(workerID)
	sh.mu.Lock()
	if ws, ok := sh.workers[workerID]; ok {
		for _, a := range ws.goldenAnswers {
			out[a.Task] = true
		}
	}
	sh.mu.Unlock()
	return out
}

// answeredSnapshot returns a private copy of the worker's answered-task set
// (T(w)); the copy lets the assignment scan run without holding her shard
// lock.
func (s *System) answeredSnapshot(workerID string) map[int]bool {
	sh := s.shard(workerID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ws, ok := sh.workers[workerID]
	if !ok || len(ws.answered) == 0 {
		return nil
	}
	out := make(map[int]bool, len(ws.answered))
	for id := range ws.answered {
		out[id] = true
	}
	return out
}

// workerReady reports whether the worker can receive regular tasks: either
// profiled this session, known to the store, or there are no golden tasks
// to profile with. Adopting a store profile is a durable event: the exact
// statistics read (and the profiled-flag flip) are logged as a KindSeed
// record under logMu, so replay restores the same bits at the same point
// in the answer order instead of re-reading a store that may have moved on.
func (s *System) workerReady(workerID string, goldenList []*model.Task) (bool, error) {
	if len(goldenList) == 0 {
		return true, nil
	}
	sh := s.shard(workerID)
	sh.mu.Lock()
	// Lookup without creating: bare Request traffic (including unknown or
	// scanning worker IDs) must not grow the shard maps — per-worker state
	// is materialized only when there is something to record.
	if ws, ok := sh.workers[workerID]; ok && ws.profiled {
		sh.mu.Unlock()
		return true, nil
	}
	st, ok := s.store.Worker(workerID)
	if !ok {
		sh.mu.Unlock()
		return false, nil
	}
	// The seed record is forced even when the incremental engine already
	// knew the worker (her regular answers preceded this request): the
	// profiled-flag flip below must replay at this exact sequence, and the
	// set-if-absent install loses identically on both sides.
	s.logMu.Lock()
	_, p, err := s.logSeed(workerID, st, true, true)
	s.logMu.Unlock()
	ws := sh.state(workerID)
	ws.profiled = true
	if ws.anchor == nil {
		ws.anchor = st.Clone()
	}
	sh.mu.Unlock()
	if err != nil {
		return true, err
	}
	return true, s.walCommit(p)
}

// profileWorker initializes the worker's quality from her golden-task
// answers and registers it with the incremental engine and the store.
// Callers hold the worker's shard lock.
//
// The store merge is idempotent by profile ID (store.MergeProfile): the
// live system applies it and waits for its store record; every replay of
// the same gauntlet completion — crash recovery, every snapshot pass —
// finds the recorded ID and adopts the recorded post-merge anchor without
// double-counting. When a crash lost the merge record after the completing
// answer became WAL-durable, the replay's MergeProfile finds no ID and
// repairs the store bit-exactly (the worker's stored record is exactly as
// it was before the lost merge, so the re-applied Theorem-1 fold produces
// the same bits). EstimateFromGolden is a pure function of the replayed
// golden answers, so no part of the profile depends on boot-time store
// contents.
func (s *System) profileWorker(workerID string, ws *workerState, goldenList []*model.Task) error {
	st := truth.EstimateFromGolden(goldenList, ws.goldenAnswers, s.m)
	anchor, _, err := s.store.MergeProfile(s.profileID(workerID), workerID, st)
	if err != nil {
		// The durable merge failed; abort profiling (the caller unwinds the
		// triggering answer) rather than continue with an unrecorded merge.
		return err
	}
	_ = s.inc.SetWorker(workerID, st)
	ws.profiled = true
	// Profiling pins (or re-pins) the anchor: the recorded post-merge value
	// is what rerun initialization must use from now on, live and replayed
	// alike — all replicas receive the same recorded bits.
	ws.anchor = anchor
	return nil
}

// ensureWorker makes sure the incremental engine knows the worker, seeding
// from the store when possible. The set-if-absent seed keeps a racing pair
// of the worker's first submits from clobbering each other's updates. An
// installed seed is logged (KindSeed) under logMu before the answer that
// triggered it reserves its own slot, so replay re-installs the exact
// seeded bits in the exact order; during recovery the store is never read
// — seeds replay from their own records.
func (s *System) ensureWorker(workerID string) error {
	if s.inc.HasWorker(workerID) {
		return nil
	}
	if s.recovering {
		return nil
	}
	st, ok := s.store.Worker(workerID)
	if !ok {
		return nil
	}
	s.logMu.Lock()
	installed, p, err := s.logSeed(workerID, st, false, false)
	s.logMu.Unlock()
	if err != nil {
		return err
	}
	if installed {
		sh := s.shard(workerID)
		sh.mu.Lock()
		ws := sh.state(workerID)
		if ws.anchor == nil {
			ws.anchor = st.Clone()
		}
		sh.mu.Unlock()
	}
	return s.walCommit(p)
}

// runRerun runs the full iterative TI (with pinned golden evidence) over a
// snapshot of the answer log and reseeds the incremental engine (the
// paper's "delayed" batch refresh every z submissions). Runs are
// serialized. The reseed skips tasks that received answers after the
// snapshot, so per-task truth state is never overwritten with stale
// values; worker quality stats are overwritten from the rerun's session
// statistics, so a worker's post-snapshot increments can regress until the
// next rerun — the same drift-and-correct contract the incremental engine
// documents.
func (s *System) runRerun() error {
	s.rerunMu.Lock()
	defer s.rerunMu.Unlock()
	err := s.rerunLocked()
	if err != nil {
		// A failed rerun must still leave the candidate index resynced: the
		// reseed never ran (inference failed before any swap), so no task
		// reopened, but resync is also the periodic safety net for closures
		// the incremental path missed — skipping it here would leave the
		// index drifting until the next SUCCESSFUL rerun, unboundedly long
		// if the failure repeats.
		if ci := s.index.Load(); ci != nil {
			ci.resync(s.cfg.AnswersPerTask)
		}
	}
	return err
}

// rerunLocked is runRerun's body; callers hold rerunMu.
func (s *System) rerunLocked() error {
	if s.rerunFault != nil {
		if err := s.rerunFault(); err != nil {
			return err
		}
	}
	res, tasks, _, as, err := s.infer()
	if err != nil {
		return err
	}
	s.inc.Reseed(tasks, res, as)
	// The rerun swap is the only mutation that can change answer counts
	// non-monotonically, so re-derive the open-task set from the reseeded
	// snapshots (reopening any task the swap put back under its redundancy
	// cap, and catching any closure the incremental path missed).
	if ci := s.index.Load(); ci != nil {
		ci.resync(s.cfg.AnswersPerTask)
	}
	s.reruns.Add(1)
	return nil
}

// initQuality gathers the initial quality of every answering worker with a
// pinned anchor: the long-run store value adopted when she was profiled or
// first seeded — anchored by golden tasks and past sessions (Theorem 1). A
// worker without one starts at truth.DefaultQuality, as Infer starts any
// worker InitQuality omits. Neither reads the incremental engine, whose
// estimates carry every earlier rerun forward, so a rerun is a pure
// function of its answer prefix and the anchors — which is what lets
// replay run the last rerun alone. The anchor is read instead of the LIVE
// store on purpose: the store evolves under concurrent campaigns, and a
// time-of-rerun store read is an unlogged float input that recovery could
// not reproduce (see docs/persistence.md).
func (s *System) initQuality(answers *model.AnswerSet) map[string]model.QualityVector {
	init := make(map[string]model.QualityVector)
	for _, w := range answers.Workers() {
		if a := s.anchorStats(w); a != nil {
			init[w] = a.Q
		}
	}
	return init
}
