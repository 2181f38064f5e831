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
// The system serves Request, Submit and Result concurrently. Every mutation
// is applied by the campaign's one writer goroutine, in arrival order and
// through the function a boot replays the log with (see writer.go), so the
// live state is the serial replay of the log. Reads (Request, Result,
// WorkerQuality) load what the writer publishes — the campaign's task set,
// the truth engine's immutable task views, an epoch-versioned array of the
// open tasks (index.go) — without waiting for it. Config.LeaseTTL bounds
// outstanding assignments per task and per worker (lease.go). The periodic
// batch re-inference runs on the writer at a record's last RerunEvery-th
// answer, where a replay of the log runs it too.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"docs/internal/assign"
	"docs/internal/dve"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// Config configures a System.
type Config struct {
	// KB is the knowledge base; nil selects the curated default.
	KB *kb.KB
	// Store persists worker statistics across campaigns; one opened over
	// an empty path keeps them in memory. Required.
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
	// (default 100, the paper's z), on the writer, at the last z-th answer
	// of a record. Non-positive disables periodic reruns.
	RerunEvery int
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
	// ProfileScope is the campaign's name in the shared long-run store.
	// Required. Each worker's profiling merge is recorded under
	// ProfileScope+"/"+worker and applied exactly once no matter how often
	// the campaign's log replays (crash recovery, snapshot passes), and
	// Results replaces the workers' sessions under it. The registry passes
	// the campaign name. Campaigns sharing one persistent store MUST use
	// distinct scopes, or one campaign's replay would treat another
	// campaign's profiling of the same worker as its own.
	ProfileScope string
}

// workerState is everything the orchestrator tracks per worker besides
// her regular answers: her golden answers and profiling status, and her
// anchor — the long-run statistics pinned when she was profiled or first
// seeded from the store. Rerun initialization reads the anchor instead of
// the live store (initQuality): the store keeps evolving under concurrent
// campaigns, and a time-of-rerun store read is exactly the kind of
// unlogged float input that made recovered state drift from live state.
// The regular tasks she answered, T(w), are no set of hers: the answer log
// holds them, and Request reads them off each task's V(i). Only the writer
// writes it; Request loads the golden answers and the profiled flag, and
// the anchor is the writer's alone.
type workerState struct {
	golden   atomic.Pointer[[]goldenAnswer] // in the order she gave them; never appended in place
	profiled atomic.Bool
	anchor   *truth.Stats
}

// goldenAnswers returns the worker's golden answers, in the order she gave
// them.
func (ws *workerState) goldenAnswers() []goldenAnswer {
	if g := ws.golden.Load(); g != nil {
		return *g
	}
	return nil
}

// goldenAnswer is one golden answer as its worker's state holds it: the
// task's publication position and the choice.
type goldenAnswer struct{ p, choice int32 }

// goldenTask is a golden task as the campaign holds it: its position, its
// ID and the truth its requester gave.
type goldenTask struct{ p, id, truth int }

// campaign is a published task set, immutable once installed. A published
// task is known by its publication position, which taskOrder finds from its
// ID: the task table, golden and the candidate index are indexed by it. Its
// vector and ℓ are its rest state's.
type campaign struct {
	taskTable
	taskOrder
	golden     []bool       // by position: the task serves as a golden task
	goldenList []goldenTask // golden tasks in publication order
	// ci is the live candidate index: the open-task set in publication
	// order, maintained incrementally as answers arrive and published as an
	// epoch-versioned immutable array; nil before the publication.
	ci *candidateIndex
}

// System is a running DOCS campaign.
type System struct {
	kb     *kb.KB
	linker *entitylink.Linker
	m      int
	store  *store.Store
	cfg    Config

	// pub is the published task set: an empty one until the publication
	// installs, never nil.
	pub atomic.Pointer[campaign]

	inc *truth.Incremental

	// leases tracks outstanding assignments when Config.LeaseTTL is set
	// (nil otherwise). Created in New, before serving.
	leases *leaseTable

	// workers holds each worker's serving state at their truth-engine handle.
	// Only what the log records of a worker gives them an entry (stateFor);
	// the slab grows copy-on-write and an entry never moves, so readers load
	// it without a lock. Set in New, never nil.
	workers atomic.Pointer[[]*workerState]

	// log is the chronological log of regular answers, the writer's alone:
	// the one holder of a regular answer, as columns — the worker's handle
	// in the truth engine, the task's publication position, the choice.
	log model.Columns

	// ops carries calls to the writer goroutine (write), which closes
	// halted once a call has ended it (shut).
	ops    chan *call
	halted chan struct{}
	ended  bool // on the writer
	// checks counts the answers check has held, on the writer.
	checks int

	// wal fields are written once by Recover, before serving starts.
	wal      *wal.Log
	walDir   string
	recovery RecoveryInfo
	// replayed counts the answers the boot replayed and since is when the
	// core began serving (Stats' Served and Since); both are written
	// before it serves.
	replayed int64
	since    time.Time

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
	// rerunFrom is, during replay, the last rerun boundary the replayed log
	// reaches (replay sets it, 0 otherwise): a rerun is a pure function of
	// its answer prefix and the pinned anchors, so it overwrites every rerun
	// before it and the engine math of every answer up to it, and replay
	// skips both. covered is set while replay applies a record the
	// snapshot it will install covers: the install overwrites the same.
	rerunFrom int64
	covered   bool

	// resultsMu serializes Results from its prefix to its last store write,
	// so an earlier prefix's sessions never land over a later one's. The
	// store writes run off the writer, which they would stall.
	resultsMu sync.Mutex
	// rerunFault, when set (tests only), is invoked at the top of every
	// rerun attempt; a non-nil return fails the rerun — the seam the
	// failed-rerun regression test injects through.
	rerunFault func() error
	// publishFault, when set (tests only), is invoked before DVE runs over
	// each chunk of a publication; a non-nil return fails that chunk.
	publishFault func(chunk int) error
	// packFault, when set (tests only), is invoked after the packer; a
	// non-nil return fails the pack.
	packFault func() error
	// assignOracle, when set (tests only, before any traffic), assigns
	// in place of assignIndexed: the full scan the indexed path is held
	// bit-identical to.
	assignOracle func(as *assign.Assigner, w int32, held []int, q model.QualityVector, k, redundancy int) []int
	// eagerInstall, when set (tests only, before Publish or Recover),
	// materialises every regular task at publish and lists every one at
	// every rerun — the oracle latent tasks and reruns sized by the
	// answered tasks are held bit-identical to.
	eagerInstall bool

	spaces sync.Pool // of *requestSpace
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
	if cfg.Store == nil || cfg.ProfileScope == "" {
		return nil, errors.New("core: a campaign needs a Store and a ProfileScope")
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
		kb:     k,
		linker: entitylink.New(k),
		m:      m,
		store:  cfg.Store,
		cfg:    cfg,
		inc:    truth.NewIncremental(m),
		//docs:allow clock serving-age anchor for the /stats rate; reporting only, never durable
		since: time.Now(),
	}
	s.pub.Store(new(campaign))
	s.workers.Store(new([]*workerState))
	s.ops, s.halted = make(chan *call), make(chan struct{})
	go s.write()
	if cfg.LeaseTTL > 0 {
		s.leases = newLeaseTable(cfg.LeaseTTL, cfg.Clock)
	}
	s.spaces.New = func() any { return new(requestSpace) }
	return s, nil
}

// Close flushes, fsyncs and closes the WAL as the writer's last call
// (shut), so a graceful shutdown loses nothing regardless of sync policy.
// Closing again is a no-op. The store stays open: its owner may share it.
func (s *System) Close() error { return s.shut(func() error { return nil }) }

// stateOf returns the worker's serving state, nil if they have no handle or
// the slab does not reach it. It gives them neither.
func (s *System) stateOf(workerID string) *workerState {
	h, ok := s.inc.Handle(workerID)
	if slab := *s.workers.Load(); ok && int(h) < len(slab) {
		return slab[h]
	}
	return nil
}

// stateFor returns the worker's serving state, interning them and growing
// the slab to their handle if need be. Only a record's apply calls it — a
// golden answer, a seed, a profile — so replay mints the handles the live
// run did, and a request grows nothing. The slab at least doubles, into a
// fresh array, so a reader's copy is never written. On the writer.
func (s *System) stateFor(workerID string) *workerState {
	h := s.inc.Intern(workerID)
	slab := *s.workers.Load()
	if int(h) < len(slab) {
		return slab[h]
	}
	grown := make([]*workerState, max(int(h)+1, 2*len(slab)))
	copy(grown, slab)
	for i := len(slab); i < len(grown); i++ {
		grown[i] = new(workerState)
	}
	s.workers.Store(&grown)
	return grown[h]
}

// byName returns the handles of names in worker-name order, the order
// golden answers enter a rerun and the fingerprint.
func byName(names []string) []int32 {
	hs := make([]int32, len(names))
	for h := range hs {
		hs[h] = int32(h)
	}
	slices.SortFunc(hs, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	return hs
}

// Domains returns the system's domain set.
func (s *System) Domains() *model.DomainSet { return s.kb.Domains() }

// Batch is a publication that has passed the structural half of Publish's
// validation over m domains: CheckEach (or CheckTasks) makes one and
// PublishBatch publishes it without checking it again. It reads its n
// tasks through task, which lends task i as a value whenever the packer
// encodes a column of it, so nothing of them is converted or kept but their
// vectors: a Batch is published once — the publish writes the logged
// encoding of each task's vector, the requester's or DVE's, into keys.
type Batch struct {
	n, m    int
	task    func(i int) model.Task
	head    int                  // the bytes of its DPC1 blob before the ref column (headSize)
	domains []model.DomainVector // by position: the requester's vector; nil where DVE gives one
	keys    [][]byte             // by position: its vector's logged encoding (appendVector), in its chunk's slab
}

// taskOrder is a publication's one task ID → position lookup: the IDs in
// publication order, and the positions sorted by ID, which a binary search
// reads through the ID column.
type taskOrder struct {
	ids  []int   // task ID at each publication position
	byID []int32 // positions, ascending by task ID; nil when the IDs ascend
}

// orderOf is the ID lookup over ids, in publication order: the positions
// sorted by ID, equal IDs in publication order — none when the IDs ascend,
// as most publications' do: they are their own order then.
func orderOf(ids []int) taskOrder {
	o := taskOrder{ids: ids}
	for p := 1; p < len(ids); p++ {
		if ids[p] <= ids[p-1] {
			o.byID = make([]int32, len(ids))
			for p := range o.byID {
				o.byID[p] = int32(p)
			}
			slices.SortFunc(o.byID, func(a, b int32) int { return cmp.Or(cmp.Compare(ids[a], ids[b]), cmp.Compare(a, b)) })
			break
		}
	}
	return o
}

// firstRepeat returns the least position that repeats an earlier ID, or
// len(o.ids) if none: equal IDs sort adjacent, in publication order.
func (o *taskOrder) firstRepeat() int {
	repeat := len(o.ids)
	for x := 1; x < len(o.byID); x++ {
		if o.ids[o.byID[x]] == o.ids[o.byID[x-1]] {
			repeat = min(repeat, int(o.byID[x]))
		}
	}
	return repeat
}

// position returns the publication position of the task with this ID.
func (o *taskOrder) position(id int) (int, bool) {
	if o.byID == nil {
		return slices.BinarySearch(o.ids, id)
	}
	i, ok := slices.BinarySearchFunc(o.byID, id, func(p int32, id int) int { return cmp.Compare(o.ids[p], id) })
	if !ok {
		return 0, false
	}
	return int(o.byID[i]), true
}

// CheckTasks is CheckEach over tasks, which the Batch reads until it is
// published. A requester's domain vector is the task's own: nothing writes
// into it.
func CheckTasks(tasks []*model.Task, m int) (*Batch, error) {
	return CheckEach(len(tasks), m, func(i int) model.Task { return *tasks[i] })
}

// CheckEach is the structural half of Publish's validation, the half that
// needs neither a campaign nor DVE, over the n tasks task lends: no task ID
// twice, every task's own invariants (at least two choices, truth in range,
// a requester-supplied domain vector well-formed) over a domain set of size
// m, and a batch one log record can hold whatever vectors DVE gives it. A
// server runs it before it creates a campaign for a publication, so a batch
// Publish would reject leaves no empty campaign behind, and then publishes
// the Batch. The first fault in publication order is the one reported: a
// task repeating an earlier ID before any invalid task. task must lend the
// same tasks until the Batch is published. Nothing is converted: a check
// allocates the IDs its duplicate check reads, and sorts positions only
// when the IDs do not ascend.
func CheckEach(n, m int, task func(i int) model.Task) (*Batch, error) {
	ids := make([]int, n)
	for p := range ids {
		ids[p] = task(p).ID
	}
	order := orderOf(ids)
	repeat := order.firstRepeat()
	b := &Batch{n: n, m: m, task: task}
	for p := 0; p < repeat; p++ {
		t := task(p)
		if err := t.Validate(m); err != nil {
			return nil, err
		}
		if t.Domain != nil {
			if b.domains == nil {
				b.domains = make([]model.DomainVector, n)
			}
			b.domains[p] = t.Domain
		}
	}
	if repeat < n {
		return nil, fmt.Errorf("core: duplicate task ID %d", ids[repeat])
	}
	var err error
	if b.head, err = headSize(b); err != nil {
		return nil, err
	}
	return b, nil
}

// Publish runs DVE over the tasks, selects golden tasks among those with
// ground truth, and opens the campaign. Tasks without a precomputed Domain
// get one from the DVE pipeline (entity linking + Algorithm 1); tasks the
// requester already annotated keep their vector. DVE runs on every core and
// the durable record's packing streams behind it (linkAndPack); the
// publication is decoded beside the rest of the pack, and the writer logs
// and installs it once the record is whole. A pack failure is
// ErrDurability.
func (s *System) Publish(tasks []*model.Task) error {
	b, err := CheckTasks(tasks, s.m)
	if err != nil {
		return err
	}
	return s.PublishBatch(b)
}

// PublishBatch is Publish for a batch CheckEach has checked over the
// campaign's domain count. The campaign's task table is built from the
// record's DPC1 blob by the decoder a wake runs, which validates as it
// decodes, so a published campaign and a woken one hold the same bytes and
// accept the same records.
func (s *System) PublishBatch(b *Batch) error {
	if s.Published() {
		return fmt.Errorf("core: tasks already published")
	}
	// The whole batch is validated (CheckEach) before any campaign state
	// changes: a rejected task must leave the system exactly as it was, so
	// the requester can fix the batch and re-publish (a partial insert
	// would make the retry fail on its own leftovers). The structural pass
	// comes first and whole, so a batch it rejects has cost no domain
	// vector.
	if b.m != s.m {
		return fmt.Errorf("core: batch checked over %d domains, the campaign has %d", b.m, s.m)
	}
	if b.domains == nil {
		b.domains = make([]model.DomainVector, b.n)
	}
	// DVE ends while a rejection still leaves the campaign unpublished. The
	// record fits one WAL record (CheckEach held the batch to that with
	// every vector at its largest).
	dpc1, record, err := s.linkAndPack(b, s.wal != nil)
	if err != nil {
		return err
	}
	pub, err := decodeBinaryPublication(dpc1, s.m)
	blob, packErr := record()
	if err != nil {
		return err // a publication its decoder refuses is never logged
	}
	if packErr != nil {
		return fmt.Errorf("core: %w: publication record: %v", ErrDurability, packErr)
	}

	// Log the publication — tasks with their DVE-computed domain vectors —
	// so recovery does not depend on re-running entity linking against a
	// possibly different knowledge-base build.
	var p wal.Pending
	err = s.do(func() (err error) {
		if s.Published() {
			return fmt.Errorf("core: tasks already published")
		}
		p, err = s.commit(&entry{Record: wal.Record{Kind: wal.KindPublish, Blob: blob}, pub: pub})
		return err
	})
	if err != nil {
		return err
	}
	return s.walCommit(p)
}

// installPublication makes a decoded publication the campaign's task set —
// the one place a task set becomes serving state, for a publish and a wake
// alike. Golden tasks are chosen among the tasks with ground truth, so a
// new worker's answers can be scored (Section 5.2), and go to the golden
// list; every other task enters the live candidate index at its
// publication position (the order the assignment tie-break is defined over)
// and, with leases armed, gets its lease counter there, before serving can
// observe the campaign. Every task's rest state holds its vector and ℓ. A
// task enters the truth engine latent: it holds nothing there until its
// first answer materialises it (materialise), and reads its rest state. On
// the writer.
func (s *System) installPublication(pub *publication) {
	n := len(pub.ids)
	rests := make([]*truth.Rest, n)
	var withTruth []model.Task
	var truthPos []int
	truths, refs := wal.NewCursor(pub.body[pub.truths:]), wal.NewCursor(pub.body[pub.refs:])
	for p := range rests {
		r, truthP := pub.vectors[refs.Uvarint()], truths.Int()-1
		rests[p] = s.inc.Rest(r, pub.ell(p))
		if truthP != model.NoTruth {
			withTruth = append(withTruth, model.Task{ID: pub.ids[p], Domain: r, Truth: truthP})
			truthPos = append(truthPos, p)
		}
	}
	c := &campaign{taskTable: pub.taskTable, taskOrder: pub.taskOrder, golden: make([]bool, n)}
	golden := c.golden
	if k := s.cfg.GoldenCount; k > 0 && len(withTruth) > 0 {
		cands := make([]*model.Task, len(withTruth))
		for i := range withTruth {
			cands[i] = &withTruth[i]
		}
		for _, i := range assign.SelectGolden(cands, k, s.m) {
			golden[truthPos[i]] = true
		}
		for i, p := range truthPos {
			if golden[p] {
				c.goldenList = append(c.goldenList, goldenTask{p, pub.ids[p], withTruth[i].Truth})
			}
		}
	}
	c.ci = newCandidateIndex(pub.ids, rests, golden)
	if s.leases != nil {
		s.leases.install(n)
	}
	if s.eagerInstall {
		for p := range rests {
			if !golden[p] {
				s.inc.Materialise(c.ci.row(p), &c.ci.slots[p])
			}
		}
	}
	s.pub.Store(c)
}

// materialise gives the regular task at position p its own state in the
// truth engine, at the rest state it read, before an answer lands in it —
// ingested or replayed without its math (skipIngest) — and returns the slot
// the engine finds that state through.
func (s *System) materialise(p int) *truth.Slot {
	ci := s.pub.Load().ci
	s.inc.Materialise(ci.row(p), &ci.slots[p])
	return &ci.slots[p]
}

// publishChunk is how many tasks make one chunk of Publish's pipeline.
const publishChunk = 64

// linkAndPack runs DVE over chunks of the batch on up to GOMAXPROCS
// goroutines, this one among them (the knowledge base is finished and each
// task is its own), each reusing one workspace and writing each vector's
// logged encoding into its chunk's slab, and encodes the record's DPC1
// blob: when logged is set, on one more goroutine that packs it beside
// them (packRecord, which waits for the linkers only before the vectors).
// It returns the blob once it is whole, with record to wait for the
// packer. Its error is the one a serial loop would meet first, and then no
// goroutine it started is left. The packer runs beside the linkers, not
// after them, because it encodes the head columns while DVE runs: one that
// waited for the linkers made a 6,000-task publish 34 % slower and a
// 200-task one 17 % slower, on 2 cores over 40 alternating pairs.
func (s *System) linkAndPack(b *Batch, logged bool) (dpc1 []byte, record func() ([]byte, error), err error) {
	chunks := (b.n + publishChunk - 1) / publishChunk
	errs, linked := make([]error, chunks), make(chan struct{})
	firstErr := func() error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	var blob []byte
	var packErr error
	var packer sync.WaitGroup
	built := make(chan []byte, 1)
	if logged {
		packer.Add(1)
		go func() {
			defer packer.Done()
			defer close(built)
			d := deflaters.Get().(*deflater)
			defer releaseDeflater(d)
			blob, packErr = packRecord(b, d, func() error { <-linked; return firstErr() }, func(dpc1 []byte) { built <- dpc1 })
			if packErr == nil && s.packFault != nil {
				packErr = s.packFault()
			}
		}()
	}
	record = func() ([]byte, error) { packer.Wait(); return blob, packErr }
	var next atomic.Int64
	b.keys = make([][]byte, b.n)
	link := func() {
		var ws linkSpace
		for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
			errs[c] = s.linkChunk(c, b, c*publishChunk, min((c+1)*publishChunk, b.n), &ws)
		}
	}
	var linkers sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), chunks); w++ {
		linkers.Add(1)
		go func() { defer linkers.Done(); link() }()
	}
	link()
	linkers.Wait()
	close(linked)
	if err := firstErr(); err != nil {
		record() // the packer stops at the linkers' error
		return nil, nil, err
	}
	if !logged {
		_, err := packRecord(b, nil, firstErr, func(whole []byte) { dpc1 = whole })
		return dpc1, record, err
	}
	if dpc1, ok := <-built; ok {
		return dpc1, record, nil
	}
	_, err = record() // the packer failed before the blob was whole
	return nil, nil, err
}

// linkSpace is one DVE goroutine's memory: the workspace a vector is
// computed in and the scratch its encoding is built in.
type linkSpace struct {
	dve    dve.Workspace
	sparse wal.SparseFloats
	ends   []int
}

// linkChunk runs DVE over chunk c, the batch's tasks at positions lo to hi,
// for those that have no domain vector, and writes every task's logged
// encoding into the chunk's slab (encodeChunk). The vectors are validated
// once each, by the check of the table the publish installs.
func (s *System) linkChunk(c int, b *Batch, lo, hi int, ws *linkSpace) error {
	if s.publishFault != nil {
		if err := s.publishFault(c); err != nil {
			return err
		}
	}
	return b.encodeChunk(lo, hi, ws, func(p int) model.DomainVector {
		if v := b.domains[p]; v != nil {
			return v // the requester's, validated with its task
		}
		return ws.dve.Vector(s.linker, b.task(p).Text, s.m)
	})
}

// encodeChunk writes the logged encoding (appendVector) of the vector of
// each position from lo to hi into one slab of the chunk's own, and points
// the position's key at it: each vector is encoded once, before vector
// gives the next.
func (b *Batch) encodeChunk(lo, hi int, ws *linkSpace, vector func(p int) model.DomainVector) error {
	var slab []byte
	ws.ends = ws.ends[:0]
	for p := lo; p < hi; p++ {
		v := vector(p)
		if len(v) != b.m {
			return fmt.Errorf("core: publication: task %d has a domain vector of size %d, want %d", b.task(p).ID, len(v), b.m)
		}
		var err error
		if slab, err = appendVector(slab, &ws.sparse, v, b.m); err != nil {
			return fmt.Errorf("model: task %d: %w", b.task(p).ID, err)
		}
		ws.ends = append(ws.ends, len(slab))
	}
	start := 0
	for i, end := range ws.ends {
		b.keys[lo+i], start = slab[start:end:end], end
	}
	return nil
}

// Published reports whether the campaign's tasks are in place (directly or
// via WAL recovery).
func (s *System) Published() bool { return len(s.pub.Load().ids) > 0 }

// GoldenTasks returns the golden task IDs in publication order.
func (s *System) GoldenTasks() []int {
	goldenList := s.pub.Load().goldenList
	out := make([]int, 0, len(goldenList))
	for _, g := range goldenList {
		out = append(out, g.id)
	}
	return out
}

// Served is one task a Request serves: its publication position, its ID
// and the truth its requester gave (NoTruth without one). Serve lays out
// its text and choices.
type Served struct{ P, ID, Truth int }

// Request serves an arriving worker: a returning (or profiled) worker gets
// the k highest-benefit open tasks; a new worker is first served the
// golden tasks she has not answered yet. The returned tasks are in
// assignment order. Requests run concurrently with each other and with
// submits: the candidate set is one atomic load of the index's shared
// immutable array and task states are read from the truth engine's latest
// immutable snapshots, so the scan never waits for the writer (and may be
// up to one submit stale, which OTA tolerates by design). With leases
// armed (Config.LeaseTTL) the writer expires the due leases and lists the
// worker's before the scan, and leases the served tasks to the worker after
// it, until answered or expired. A request only looks the worker's handle
// up: it builds no map and mints no handle.
func (s *System) Request(workerID string, k int) ([]Served, error) {
	if workerID == "" {
		return nil, fmt.Errorf("core: empty worker ID")
	}
	c := s.pub.Load()
	if k <= 0 {
		k = s.cfg.HITSize
	}

	ready, err := s.workerReady(workerID, c.goldenList)
	if err != nil {
		// The worker's store-seed could not be promised durable; surface it
		// like any other durability failure instead of serving tasks whose
		// assignment depended on state recovery would not reconstruct.
		return nil, err
	}
	if !ready {
		// Serve the golden tasks they have not answered first: their few
		// golden answers are scanned.
		var answered []goldenAnswer
		if ws := s.stateOf(workerID); ws != nil {
			answered = ws.goldenAnswers()
		}
		var out []Served
		for _, g := range c.goldenList {
			if len(out) < k && !slices.ContainsFunc(answered, func(a goldenAnswer) bool { return int(a.p) == g.p }) {
				out = append(out, Served{g.p, g.id, g.truth})
			}
		}
		if len(out) > 0 {
			return out, nil
		}
		// No golden tasks configured: fall through to OTA with defaults.
	}

	sp := s.spaces.Get().(*requestSpace)
	if len(sp.q) != s.m {
		sp.q = make(model.QualityVector, s.m)
	}
	q := s.quality(workerID, sp.q)
	// T(w) is read off each candidate's V(i) by the worker's handle; a
	// worker without one has answered nothing.
	w, ok := s.inc.Handle(workerID)
	if !ok {
		w = -1
	}
	// Leases: expire what is due, then exclude the tasks this worker
	// already holds, so a re-request before submitting gets disjoint tasks.
	sp.held = sp.held[:0]
	if s.leases != nil {
		if err := s.do(func() error { sp.held = s.leases.beginRequest(workerID, sp.held); return nil }); err != nil {
			return nil, err
		}
	}
	redundancy := s.cfg.AnswersPerTask
	var ps []int
	if s.assignOracle != nil {
		ps = s.assignOracle(&sp.as, w, sp.held, q, k, redundancy)
	} else {
		ps = s.assignIndexed(c.ci, &sp.as, w, sp.held, q, k, redundancy)
	}
	s.spaces.Put(sp)
	if s.leases != nil && len(ps) > 0 {
		if err := s.do(func() error { s.leases.grant(workerID, ps); return nil }); err != nil {
			return nil, err
		}
	}
	out := make([]Served, len(ps))
	for i, p := range ps {
		out[i] = Served{p, c.ids[p], c.truth(p)}
	}
	return out, nil
}

// requestSpace is the memory a request reuses: the assigner's heap, the
// worker's quality vector and the positions of the tasks the worker holds
// leases on, ascending.
type requestSpace struct {
	as   assign.Assigner
	q    model.QualityVector
	held []int
}

// Serve lays out the served tasks straight from the task table: put
// receives the i'th one's text and choices. The choices of all of them are
// one fresh slice, each task's capped, which put may keep.
func (s *System) Serve(served []Served, put func(i int, text string, choices []string)) {
	table := s.pub.Load().taskTable
	n := 0
	for _, t := range served {
		n += table.ell(t.P)
	}
	all := make([]string, 0, n)
	for i, t := range served {
		from := len(all)
		all = table.appendChoices(all, t.P)
		put(i, table.textAt(t.P), all[from:len(all):len(all)])
	}
}

// Tasks mints the served tasks whole, with their domain vectors, for the
// callers that read a served task as a model.Task: the simulated crowd's
// answer model reads its vector and truth.
func (s *System) Tasks(served []Served) []model.Task {
	ci, out := s.pub.Load().ci, make([]model.Task, len(served))
	s.Serve(served, func(i int, text string, choices []string) {
		t := served[i]
		out[i] = model.Task{ID: t.ID, Text: text, Choices: choices, Truth: t.Truth, Domain: ci.rests[t.P].R, TrueDomain: model.NoTruth}
	})
	return out
}

// assignIndexed is the indexed OTA hot path: one atomic load of the shared
// immutable candidate array, then a streamed size-k heap over it. The only
// per-request allocation is the returned positions — nothing proportional
// to campaign size, to what the worker answered or to the leases they hold.
// The per-candidate filter re-checks the worker's answer (the task's V(i)
// holds handle w), redundancy and live leases against the latest truth
// snapshot, so entries that closed since the last index compaction are
// skipped exactly as the full scan would skip them. held (ascending) and
// the result hold positions.
func (s *System) assignIndexed(ci *candidateIndex, as *assign.Assigner, w int32, held []int, q model.QualityVector, k, redundancy int) []int {
	if ci == nil {
		return nil
	}
	arr := ci.load()
	if arr == nil || len(arr.entries) == 0 {
		return nil
	}
	entries := arr.entries
	return as.AssignFunc(len(entries), func(i int, ts *assign.TaskState) bool {
		p := entries[i]
		if _, leased := slices.BinarySearch(held, int(p)); leased {
			return false
		}
		v := ci.view(p)
		if v.Answered(w) {
			return false
		}
		if redundancy > 0 {
			open := redundancy - v.NumAnswers
			if s.leases != nil {
				open -= int(s.leases.slots[p].Load())
			}
			if open <= 0 {
				return false
			}
		}
		// The view's M and S are immutable snapshots: OTA reads them
		// without copying or locking.
		ts.ID, ts.R, ts.M, ts.S = int(p), ci.rests[p].R, v.M, v.S
		return true
	}, q, k)
}

// Submit records a worker's answer. Golden-task answers feed the worker's
// quality profile; regular answers flow through incremental truth
// inference, with a periodic full iterative re-run every RerunEvery
// submissions, on the writer. The writer checks, logs and applies the
// answer; Submit waits for its group commit after.
func (s *System) Submit(workerID string, taskID, choice int) error {
	var p wal.Pending
	err := s.do(func() (err error) { p, err = s.submit(workerID, taskID, choice); return err })
	if err != nil {
		return err
	}
	return s.walCommit(p)
}

// submitOne applies one answer, live or replayed, from its KindAnswer
// record or as an item of a KindBatch one: the one place an answer changes
// the campaign, on the writer. A golden answer goes to its worker's golden
// answers and, completing the gauntlet, profiles them; a regular one runs
// through the truth engine and the serving state that follows it, joins the
// chronological answer log and keeps the rerun cadence. It is the i'th
// answer of record e, whose reservation profiling waits on first.
func (s *System) submitOne(workerID string, taskID, choice int, e *entry, i int) error {
	// A live record carries what the writer's check found; a replayed one
	// is checked here.
	at, golden := 0, e.golden
	var err error
	if e.at != nil {
		at = e.at[i]
	} else if at, golden, err = s.check(workerID, taskID, choice); err != nil {
		return err
	}
	c := s.pub.Load()
	if golden {
		ws := s.stateFor(workerID)
		answered := append(slices.Clip(ws.goldenAnswers()), goldenAnswer{int32(at), int32(choice)})
		ws.golden.Store(&answered)
		if len(answered) < len(c.goldenList) {
			return nil
		}
		// The answer becomes durable BEFORE the profiling merge. The merge
		// is recorded under a campaign-scoped profile ID (MergeProfile), so
		// both crash orders are safe: a crash after the merge replays the
		// completing answer and finds the recorded ID (no double-count), and
		// a crash before the merge replays the completing answer into an
		// ID-less store and re-applies the merge bit-exactly (no loss) —
		// TestCrashRecoversUnmergedProfiling pins the repair. The writer
		// waits here, once per worker, so the profile lands at the answer's
		// place in the record order, where its replay lands it.
		if err := s.walCommit(e.pending); err != nil {
			return err
		}
		return s.profileWorker(workerID, ws, c)
	}

	w := s.inc.Intern(workerID)
	if s.covered || s.submissions.Load() < s.rerunFrom {
		// A later overwrite in this replay — the snapshot's install or the
		// last rerun's Reseed — replaces this answer's engine math.
		if err := s.skipIngest(workerID, w, at, choice); err != nil {
			return err
		}
	} else if err := s.ingest(workerID, w, at, choice); err != nil {
		return err
	}
	s.log = s.log.Append(w, int32(at), int32(choice))
	n := s.submissions.Add(1)
	// A boundary the same record passes again reruns nothing: nothing can
	// observe the state between two of its answers, and the rerun at the
	// later boundary overwrites this one's, as the one at rerunFrom
	// overwrites every rerun a replay skips.
	if z := int64(s.cfg.RerunEvery); z > 0 && n%z == 0 && n >= s.rerunFrom && !s.covered && (e.cols == nil || int64(e.cols.Len()-1-i) < z) {
		return s.rerun()
	}
	return nil
}

// ingest runs a regular answer of the worker with handle w to the task at
// position p through the truth engine and the serving state
// that follows it.
func (s *System) ingest(workerID string, w int32, p, choice int) error {
	if err := s.inc.SubmitBy(w, s.materialise(p), choice); err != nil {
		return err
	}
	// The accepted answer retires the worker's lease on the task and, once
	// redundancy is met, drops the task out of the candidate index.
	if s.leases != nil {
		s.leases.release(workerID, p)
	}
	if r := s.cfg.AnswersPerTask; r > 0 {
		ci := s.pub.Load().ci
		ci.noteAnswer(p, ci.view(int32(p)).NumAnswers, r)
	}
	return nil
}

// skipIngest is ingest for a replayed answer whose engine math a later
// overwrite replaces: the engine knows the worker at the prior, as Submit
// would have left her before that math — so a seed later in the log loses
// to her as it did live — and the task is materialised, as the answer left
// it, for the overwrite to land in, with the answer in its V(i), which is
// the duplicate check (Record). The overwrite resyncs the index.
func (s *System) skipIngest(workerID string, w int32, p, choice int) error {
	if !s.inc.Quality(workerID, nil) {
		_, _ = s.inc.SeedWorker(workerID, truth.NewStats(s.m))
	}
	return s.inc.Record(w, s.materialise(p), choice)
}

// Result returns the current inferred truth and probabilistic truth of a
// task (choice −1 for golden/unknown tasks, which are not inferred). It
// reads the latest immutable snapshot and never waits for the writer.
func (s *System) Result(taskID int) (choice int, confidence []float64) {
	c := s.pub.Load()
	p, ok := c.position(taskID)
	if !ok || c.golden[p] {
		return model.NoTruth, nil
	}
	v := c.ci.view(int32(p))
	return v.Truth, mathx.Clone(v.S)
}

// Results runs the rerun's inference and returns the final result (slices
// aligned with InferTasks). Each answering worker's session statistics
// over the regular answers (Theorem 1) replace her previous session under
// the campaign's scope in the long-run store, so an unchanged prefix writes
// nothing. Calls run one at a time from the answer prefix to the last
// store write; the writer only takes the prefix, so submits continue.
func (s *System) Results() (*truth.Result, error) {
	s.resultsMu.Lock()
	defer s.resultsMu.Unlock()
	var pr *prefix
	if err := s.do(func() error { pr = s.capture(); return nil }); err != nil {
		return nil, err
	}
	res, tasks, n, idx, err := s.infer(pr)
	if err != nil {
		return nil, err
	}
	sessions := truth.SessionStats(tasks[:n], idx, res, s.m)
	for wi, w := range idx.Workers() {
		if err := s.store.Session(s.cfg.ProfileScope, w, &sessions[wi]); err != nil {
			return nil, err
		}
	}
	return res.Over(regularRows(pr.c)), nil
}

// prefix is what a rerun reads of the campaign, taken on the writer in one
// call (capture) so the inference can run anywhere: the published task set,
// the answer log as it stands, the golden answers laid out after it with
// the golden truths pinned, each worker's anchor by handle, and the worker
// names, read after every handle those hold.
type prefix struct {
	c         *campaign
	log, tail model.Columns
	pinned    []truth.Pin
	anchors   []*truth.Stats
	names     []string
}

// capture takes the prefix a rerun infers over. On the writer.
func (s *System) capture() *prefix {
	pr := &prefix{c: s.pub.Load(), log: s.logPrefix()}
	pr.tail, pr.pinned = s.goldenTail(pr.c.goldenList)
	slab := *s.workers.Load()
	pr.anchors = make([]*truth.Stats, len(slab))
	for h, ws := range slab {
		pr.anchors[h] = ws.anchor
	}
	pr.names = s.inc.Names()
	return pr
}

// infer runs the full iterative TI, golden evidence pinned, over the
// answer log's prefix: a pure function of the prefix and the anchors. It
// lists the tasks the prefix answers and the golden ones, and counts the
// other regular tasks unlisted, so its cost follows the answered tasks.
// tasks are the n listed regular tasks in publication order, then the
// golden ones; idx indexes the regular answers alone.
func (s *System) infer(pr *prefix) (res *truth.Result, tasks []truth.Row, n int, idx *model.LogIndex, err error) {
	c := pr.c
	// Reseed, initQuality and a session read the prefix's own index (Head):
	// golden evidence is already in worker stats via profiling, and would
	// count twice.
	all, err := model.IndexColumns(pr.names, func(p int32) int { return c.ids[p] }, pr.log, pr.tail)
	if err != nil { // the log holds only answers the truth engine accepted
		panic(fmt.Sprintf("core: corrupt answer log: %v", err))
	}
	idx = all.Head()
	for _, p := range idx.Tasks() { // the answered tasks, in publication order
		tasks = append(tasks, c.ci.row(int(p)))
	}
	if s.eagerInstall { // the oracle lists every regular task
		tasks = regularRows(c)
	}
	n = len(tasks)
	for _, g := range c.goldenList {
		tasks = append(tasks, c.ci.row(g.p))
	}
	unlisted := len(c.ids) - len(c.goldenList) - n
	res, err = truth.InferIndex(tasks, all, s.m, truth.Options{InitQuality: s.initQuality(pr, idx), Pinned: pr.pinned, Unlisted: unlisted})
	return res, tasks, n, idx, err
}

// goldenTail lays the golden answers out as the columns that follow the
// answer log in a rerun's index, and pins the golden tasks' truths at their
// positions, ascending as goldenList lists them. The answers go in
// worker-name order, each worker's in the order they gave them: a fixed
// order, or per-task likelihood sums reorder between runs and ulp-level
// differences flip assignment ties. On the writer.
func (s *System) goldenTail(goldenList []goldenTask) (model.Columns, []truth.Pin) {
	if len(goldenList) == 0 {
		return model.Columns{}, nil
	}
	pinned := make([]truth.Pin, len(goldenList))
	for i, g := range goldenList {
		pinned[i] = truth.Pin{P: int32(g.p), Truth: int32(g.truth)}
	}
	var tail model.Columns
	names, slab := s.inc.Names(), *s.workers.Load()
	for _, h := range byName(names[:min(len(names), len(slab))]) {
		for _, a := range slab[h].goldenAnswers() {
			tail = tail.Append(h, a.p, a.choice)
		}
	}
	return tail, pinned
}

// InferTasks returns the non-golden tasks in publication order (the tasks
// Results infers over, in the same order as the result slices), each
// minted whole (Tasks), for the offline paths that read them whole.
func (s *System) InferTasks() []*model.Task {
	c := s.pub.Load()
	regular := make([]Served, 0, len(c.ids)-len(c.goldenList))
	for p, id := range c.ids {
		if !c.golden[p] {
			regular = append(regular, Served{p, id, c.truth(p)})
		}
	}
	tasks := s.Tasks(regular)
	out := make([]*model.Task, len(tasks))
	for i := range tasks {
		out[i] = &tasks[i]
	}
	return out
}

// InferIDs returns the IDs of InferTasks' tasks, in its order.
func (s *System) InferIDs() []int {
	c := s.pub.Load()
	out := make([]int, 0, len(c.ids)-len(c.goldenList))
	for p, id := range c.ids {
		if !c.golden[p] {
			out = append(out, id)
		}
	}
	return out
}

// WorkerQuality returns the system's current quality estimate for a worker.
func (s *System) WorkerQuality(workerID string) model.QualityVector {
	return s.quality(workerID, make(model.QualityVector, s.m))
}

// quality writes the worker's current quality estimate into q, of m
// entries, and returns it: the truth engine's, else the store's, else the
// default.
func (s *System) quality(workerID string, q model.QualityVector) model.QualityVector {
	if s.inc.Quality(workerID, q) {
		return q
	}
	if st, ok := s.store.Worker(workerID); ok {
		copy(q, st.Q)
		return q
	}
	for k := range q {
		q[k] = truth.DefaultQuality
	}
	return q
}

// Answers returns a snapshot of the collected non-golden answers.
func (s *System) Answers() *model.AnswerSet {
	var log model.Columns
	s.read(func() { log = s.logPrefix() })
	ids := s.pub.Load().ids
	names := s.inc.Names() // read after every handle the log holds
	as := model.NewAnswerSet()
	for p := range log.Len() {
		if err := as.Add(model.Answer{Worker: names[log.Worker[p]], Task: ids[log.Task[p]], Choice: int(log.Choice[p])}); err != nil {
			panic(fmt.Sprintf("core: corrupt answer log: %v", err))
		}
	}
	return as
}

// Stats is a point-in-time view of a campaign's serving counters. Each is
// declared here once; the JSON tags are its GET /c/{campaign}/stats keys.
type Stats struct {
	// Published reports whether the campaign's tasks are published.
	Published bool `json:"published"`
	// Answers is the number of accepted non-golden answers, replayed ones
	// included.
	Answers int64 `json:"answers"`
	// SnapshotEpoch is the truth engine's mutation counter; it advances
	// with every task an answer materialises, every accepted answer and
	// every batch-rerun swap (publishing a task does not move it), so two
	// equal reads bracket a quiescent system.
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// RerunsCompleted and RerunsFailed count periodic batch re-inference
	// runs.
	RerunsCompleted int64 `json:"reruns_completed"`
	RerunsFailed    int64 `json:"reruns_failed"`
	// OpenTasks is the size of the live candidate index: non-golden tasks
	// still under their redundancy cap, maintained incrementally as
	// answers arrive. IndexEpoch is the index's generation counter — it
	// advances whenever a new immutable candidate array is published (the
	// initial build, compactions, post-rerun resyncs). Both zero before
	// Publish.
	OpenTasks  int    `json:"open_tasks"`
	IndexEpoch uint64 `json:"index_epoch"`
	// LeasesActive is the number of live assignment leases (always zero
	// without Config.LeaseTTL). The read itself processes due expiries,
	// so an idle campaign reports zero once every TTL has elapsed.
	LeasesActive int64 `json:"leases_active"`
	// BatchesTotal counts the batch group records SubmitBatch logged (one
	// per call of regular answers) and BatchAnswersTotal the answers inside
	// them. Both count what the log holds, so a recovered campaign reports
	// what the live one did; single-submit traffic, golden answers
	// included, leaves both zero.
	BatchesTotal      int64 `json:"batches_total"`
	BatchAnswersTotal int64 `json:"batch_answers_total"`
	// WALEnabled reports whether a write-ahead log is armed; WALLastSeq is
	// the sequence number of the last durable record. Both zero without a
	// WAL.
	WALEnabled bool   `json:"wal_enabled"`
	WALLastSeq uint64 `json:"wal_last_seq"`
	// SnapshotLastSeq is the WAL sequence the newest state snapshot this
	// process wrote or booted from covers; zero without one.
	SnapshotLastSeq uint64 `json:"snapshot_last_seq"`
	// RecoveryInfo is what the core's boot replayed.
	RecoveryInfo
	// Served is how many of Answers this core accepted itself, the replayed
	// ones excluded, and Since is when it began serving: a rate is
	// Served over the time since Since.
	Served int64     `json:"-"`
	Since  time.Time `json:"-"`
}

// Stats returns the campaign's serving counters. Safe to call concurrently
// with serving; with leases armed the writer expires the due ones first.
func (s *System) Stats() Stats {
	st := Stats{
		Published:         s.Published(),
		Answers:           s.submissions.Load(),
		SnapshotEpoch:     s.inc.Epoch(),
		RerunsCompleted:   s.reruns.Load(),
		RerunsFailed:      s.rerunErrs.Load(),
		BatchesTotal:      s.batches.Load(),
		BatchAnswersTotal: s.batchAnswers.Load(),
		WALEnabled:        s.recovery.Enabled,
		SnapshotLastSeq:   s.snapSeq.Load(),
		RecoveryInfo:      s.recovery,
		Since:             s.since,
	}
	st.Served = st.Answers - s.replayed
	if ci := s.pub.Load().ci; ci != nil {
		st.OpenTasks, st.IndexEpoch = int(ci.openCount.Load()), ci.epoch.Load()
	}
	if s.leases != nil {
		s.read(func() { st.LeasesActive = s.leases.activeNow() })
	}
	if s.wal != nil {
		st.WALLastSeq = s.wal.LastSeq()
	}
	return st
}

// --- internal helpers ---

// regularRows returns the rows of the campaign's non-golden tasks.
func regularRows(c *campaign) []truth.Row {
	out := make([]truth.Row, 0, len(c.ids)-len(c.goldenList))
	for p := range c.ids {
		if !c.golden[p] {
			out = append(out, c.ci.row(p))
		}
	}
	return out
}

// workerReady reports whether the worker can receive regular tasks: either
// profiled this session, known to the store, or there are no golden tasks
// to profile with. Adopting a store profile is a durable event: the writer
// logs the exact statistics read, with the profiled flag, as a KindSeed
// record and applies it, so replay restores the same bits at the same point
// in the record order instead of re-reading a store that may have moved on.
func (s *System) workerReady(workerID string, goldenList []goldenTask) (bool, error) {
	if len(goldenList) == 0 {
		return true, nil
	}
	// Look up without minting: bare Request traffic (including unknown or
	// scanning worker IDs) must not grow the slab — a worker gets serving
	// state only when there is something to record.
	profiled := func() bool { ws := s.stateOf(workerID); return ws != nil && ws.profiled.Load() }
	if profiled() {
		return true, nil
	}
	st, ok := s.store.Worker(workerID)
	if !ok {
		return false, nil
	}
	var p wal.Pending
	err := s.do(func() (err error) {
		if !profiled() { // a racing request adopted the profile first
			p, err = s.commitSeed(workerID, st, true)
		}
		return err
	})
	if err != nil {
		return true, err
	}
	return true, s.walCommit(p)
}

// profileWorker initializes the worker's quality from her golden-task
// answers and registers it with the incremental engine and the store. On
// the writer, as her completing golden answer applies.
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
func (s *System) profileWorker(workerID string, ws *workerState, c *campaign) error {
	golden := ws.goldenAnswers()
	answers := make([]model.Answer, len(golden))
	for i, a := range golden {
		answers[i] = model.Answer{Worker: workerID, Task: c.ids[a.p], Choice: int(a.choice)}
	}
	st := truth.EstimateFromGolden(goldenTasks(c), answers, s.m)
	anchor, _, err := s.store.MergeProfile(s.profileID(workerID), workerID, st)
	if err != nil {
		// The durable merge failed; abort profiling rather than continue
		// with an unrecorded merge.
		return err
	}
	_ = s.inc.SetWorker(workerID, st)
	ws.profiled.Store(true)
	// Profiling pins (or re-pins) the anchor: the recorded post-merge value
	// is what rerun initialization must use from now on, live and replayed
	// alike — all replicas receive the same recorded bits.
	ws.anchor = anchor
	return nil
}

// goldenTasks mints the campaign's golden tasks as EstimateFromGolden reads
// them: ID, domain vector and truth.
func goldenTasks(c *campaign) []*model.Task {
	out := make([]*model.Task, len(c.goldenList))
	for i, g := range c.goldenList {
		out[i] = &model.Task{ID: g.id, Domain: c.ci.rests[g.p].R, Truth: g.truth}
	}
	return out
}

// rerun runs the full iterative TI (with pinned golden evidence) over the
// answer log as it stands and reseeds the incremental engine with it (the
// paper's "delayed" batch refresh every z submissions). It runs on the
// writer, inside the submit that reaches the boundary, live and in a
// replay alike, so the swap lands at the same place in the log both ways;
// worker quality stats are overwritten from the rerun's session
// statistics. A failed rerun counts in RerunsFailed.
func (s *System) rerun() error {
	var res *truth.Result
	var tasks []truth.Row
	var idx *model.LogIndex
	var err error
	if s.rerunFault != nil {
		err = s.rerunFault()
	}
	if err == nil {
		res, tasks, _, idx, err = s.infer(s.capture())
	}
	if err == nil {
		s.inc.Reseed(tasks, res, idx)
		s.reruns.Add(1)
	} else {
		s.rerunErrs.Add(1)
	}
	// The rerun swap is the only mutation that can change answer counts
	// non-monotonically, so re-derive the open-task set from the reseeded
	// snapshots (reopening any task the swap put back under its redundancy
	// cap, and catching any closure the incremental path missed). A failed
	// rerun resyncs too: skipping the safety net would leave the index
	// drifting until the next successful rerun, unboundedly long if the
	// failure repeats.
	if ci := s.pub.Load().ci; ci != nil {
		ci.resync(s.cfg.AnswersPerTask)
	}
	return err
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
func (s *System) initQuality(pr *prefix, answers *model.LogIndex) map[string]model.QualityVector {
	init := make(map[string]model.QualityVector)
	for _, w := range answers.Workers() {
		if h, ok := s.inc.Handle(w); ok && int(h) < len(pr.anchors) && pr.anchors[h] != nil {
			init[w] = slices.Clone(pr.anchors[h].Q)
		}
	}
	return init
}
