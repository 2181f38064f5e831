// Package docs is a Go implementation of DOCS, the Domain-Aware
// Crowdsourcing System (Zheng, Li, Cheng — PVLDB 10(4), 2016).
//
// DOCS improves crowdsourced truth inference by modelling each worker's
// quality per knowledge domain rather than as a single number. It consists
// of three modules, all implemented here from scratch:
//
//   - Domain Vector Estimation (DVE): entity-links each task's text against
//     a knowledge base and computes a distribution over 26 domains via the
//     paper's polynomial-time Algorithm 1;
//   - Truth Inference (TI): jointly estimates task truths and per-domain
//     worker qualities, iteratively (batch) and incrementally (online);
//   - Online Task Assignment (OTA): serves each arriving worker the k tasks
//     whose answers reduce truth ambiguity the most, plus golden-task
//     profiling for first-time workers.
//
// The typical flow mirrors a crowdsourcing campaign:
//
//	sys, _ := docs.New(docs.Config{})
//	sys.Publish(tasks)                    // DVE runs here
//	batch, _ := sys.Request(workerID, 20) // OTA (or golden tasks)
//	sys.Submit(workerID, batch[0].ID, 1)  // TI updates incrementally
//	results, _ := sys.Results()           // final iterative inference
//
// For offline use (answers already collected), see InferTruth.
//
// # Concurrency
//
// A System serves Request, Submit, CurrentResult and WorkerQuality
// concurrently from any number of goroutines; only Publish is exclusive
// (call it once, before serving). Reads are served from immutable
// snapshots of the truth-inference state: a snapshot is published
// atomically after every accepted answer, so a concurrent Request sees a
// consistent (possibly one-answer-stale) view and never blocks ingest.
// Answer ingest itself takes only per-task and per-worker-shard locks, so
// answers to different tasks are processed in parallel.
//
// The periodic full re-inference (Config.RerunEvery) runs synchronously on
// the submitting goroutine by default — serial callers get exactly
// reproducible campaigns. Setting Config.AsyncRerun moves it to a
// background worker that infers over a snapshot of the answer log and
// swaps the result in atomically per task (skipping tasks that received
// answers after the snapshot); submits then never stall on the iterative
// solver. Use Close to stop the background worker when done.
//
// Staleness contract: CurrentResult and Request may trail the newest
// answer by the snapshot in flight; Results always infers over all answers
// accepted before it was called.
//
// # Assignment index and leases
//
// Request does not scan the campaign: candidates come from a live index of
// the open-task set (tasks still under their redundancy cap), maintained
// incrementally as answers arrive and shared by all requests as one
// immutable array — per-request cost is proportional to open tasks, not
// campaign size, with no per-request candidate allocation. Config.LeaseTTL
// additionally leases each served task to its worker until answered or
// expired, so re-requesting workers get disjoint batches and tasks are not
// over-assigned past their redundancy under concurrent traffic. Leases are
// serving-only state and are not persisted. See docs/assignment.md for the
// benefit math, the index design and the lease/recovery contract, and
// docs/architecture.md for the package-by-layer map.
//
// # Persistence
//
// Two artifacts survive a restart. Config.StorePath keeps the long-run
// per-worker statistics (the paper stores these in the system database so
// returning workers keep their profile across requesters); it names a log
// directory of the same write-ahead log a campaign uses, one fsynced record
// per profiling merge or changed session. A limit: a durable System outside
// a registry mints a new session scope each time it opens, so each restart
// leaves its last session beside the next one. Config.WALDir keeps the
// campaign itself: every accepted publication and answer is appended to a
// segmented, CRC-checked write-ahead log (package docs/internal/wal) with
// group-commit batching, and New replays the log — the intact segment
// records, dropping a torn final record — through the ordinary serial
// submit path before serving. Because
// concurrent serving is provably equivalent to a serial replay of the
// chronological answer log, the recovered state is bit-identical to an
// uninterrupted serial run of the logged stream; the crash-injection suite
// in docs/internal/core asserts exactly that over randomized kill points.
//
// Durability levels: by default an acknowledged Submit has reached the OS
// (survives process crashes); Config.WALSyncEveryBatch adds one fsync per
// group-commit batch (survives power loss). The segments are the only
// copy of the record stream and are never deleted. A replay runs only the
// last periodic re-inference its log reaches, so it costs one incremental
// pass over the records plus one full inference. A hibernating registry
// campaign also writes a state snapshot, and its wake restores that and
// replays only the suffix past it — bit-identical to a full replay, which
// it falls back to loudly if the snapshot is torn, corrupt, or ahead of
// the durable log. See docs/persistence.md.
//
// # Multiple campaigns
//
// OpenRegistry hosts many named campaigns in one process, each a full
// System, all sharing one long-run worker store — the paper's central
// observation is that per-domain worker quality persists across
// requesters, so a worker profiled on campaign A's golden tasks starts
// campaign B with their quality vector carried over instead of re-running
// the golden gauntlet:
//
//	reg, _ := docs.OpenRegistry(docs.Config{WALDir: "data"})
//	a, _ := reg.Create("product-labels")
//	a.Publish(tasks)
//	b, _ := reg.Campaign("product-labels") // same campaign, by name
//
// With Config.WALDir set, each campaign logs under its own namespace
// (<dir>/campaigns/<name>) and the shared store logs under <dir>/store;
// OpenRegistry recovers every campaign a previous
// process left behind. Archive ends a campaign for good; Close shuts the
// whole registry down gracefully. See docs/multi-campaign.md.
package docs

import (
	"fmt"
	"time"

	"docs/internal/core"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/registry"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// NoTruth marks an unknown ground truth.
const NoTruth = -1

// ErrDurability marks a failed durability promise: the mutation could not
// be logged to the WAL, and the campaign stops serving the state it was
// applied to — a registry drops the campaign's core and wakes it from its
// log on the next call; a System of its own must be closed and reopened.
// Check with errors.Is; servers should answer 5xx, not 4xx.
var ErrDurability = core.ErrDurability

// Task is a multiple-choice crowdsourcing task.
type Task struct {
	// ID must be unique within a campaign.
	ID int
	// Text is the natural-language description; DVE links entities in it.
	Text string
	// Choices are the possible answers (at least 2).
	Choices []string
	// GoldenTruth is the index of the correct choice when the requester
	// knows it (enables the task to serve as a golden task), or NoTruth.
	GoldenTruth int
}

// Answer is one worker response, used by the offline InferTruth API.
type Answer struct {
	Worker string
	TaskID int
	Choice int
}

// Result is the inferred outcome for one task.
type Result struct {
	TaskID int
	// Choice is the inferred truth (index into the task's Choices).
	Choice int
	// Confidence is the probabilistic truth s_i over the choices.
	Confidence []float64
}

// Config tunes a System. The zero value selects the paper's defaults:
// 20 golden tasks, HITs of 20 tasks, full re-inference every 100 answers,
// no redundancy cap, memory-only worker store.
type Config struct {
	// GoldenCount is the number of golden tasks selected among tasks with
	// GoldenTruth set; negative disables golden profiling.
	GoldenCount int
	// HITSize is k, the default number of tasks per assignment.
	HITSize int
	// AnswersPerTask caps redundancy per task (0 = unlimited).
	AnswersPerTask int
	// RerunEvery re-runs full iterative truth inference every z answers
	// (0 = the default 100, negative = never).
	RerunEvery int
	// AsyncRerun runs the periodic re-inference on a background worker
	// instead of the submitting goroutine; see the package comment for the
	// staleness contract. Serving stays deterministic without it.
	AsyncRerun bool
	// StorePath is the log directory that persists worker statistics
	// across campaigns (empty = memory-only; the registry defaults it to
	// <WALDir>/store).
	StorePath string
	// WALDir arms the write-ahead log: every accepted Publish/Submit is
	// appended durably (group-commit batched), and New replays whatever a
	// previous process left in the directory before serving. Empty keeps
	// the campaign memory-only. See the Persistence section of the package
	// comment.
	WALDir string
	// WALSyncEveryBatch fsyncs the WAL once per group-commit batch,
	// surviving power loss at the cost of one fsync amortized over each
	// batch; the default flushes batches to the OS only (survives process
	// crashes).
	WALSyncEveryBatch bool
	// LeaseTTL arms assignment leases: every task served on the OTA path
	// is leased to the worker until they answer it or the TTL elapses, so
	// a worker re-requesting before submitting gets disjoint tasks and,
	// with AnswersPerTask set, concurrent traffic cannot over-assign a
	// task far past its redundancy. Zero disables leases. Leases are
	// serving-only state (never logged to the WAL): after a crash,
	// recovery restores answers but not outstanding leases, so
	// re-assignment is briefly possible — bounded and safe, see
	// docs/assignment.md.
	LeaseTTL time.Duration

	// MaxLiveCampaigns (registry only) caps how many campaigns are
	// resident in memory at once; past the cap the least-recently-used
	// live campaign hibernates (memory released; a final snapshot only if
	// answers arrived since the last) and wakes on its next request. Also
	// makes boot lazy: campaign logs replay on first touch, not at open.
	// Requires WALDir. Zero keeps every campaign live forever (the
	// pre-hibernation behavior).
	MaxLiveCampaigns int
	// HibernateAfter (registry only) hibernates any campaign idle for
	// this long. Requires WALDir. Zero disables idle hibernation. See
	// docs/multi-campaign.md for the lifecycle and wake contract.
	HibernateAfter time.Duration
}

// campaign maps the per-campaign tuning fields onto the serving core's
// config: the one place the facade's names meet core's, used by New and
// OpenRegistry alike. WALDir, StorePath, MaxLiveCampaigns and
// HibernateAfter say where campaigns live and how many stay resident, and
// are consumed by New and OpenRegistry themselves.
func (cfg Config) campaign() core.Config {
	walSync := wal.SyncNever
	if cfg.WALSyncEveryBatch {
		walSync = wal.SyncEveryBatch
	}
	return core.Config{
		GoldenCount:    cfg.GoldenCount,
		HITSize:        cfg.HITSize,
		AnswersPerTask: cfg.AnswersPerTask,
		RerunEvery:     cfg.RerunEvery,
		AsyncRerun:     cfg.AsyncRerun,
		WALSync:        walSync,
		LeaseTTL:       cfg.LeaseTTL,
	}
}

// System is a running DOCS campaign: its own (New), or one a Registry
// hosts (Registry.Create, Registry.Campaign). A hosted System holds no core:
// each method leases the campaign from the registry for the length of the
// call, so hibernation, eviction, Archive and Close wait for it and never
// fail it. On a hosted System whose campaign is archived or whose registry
// is closed, the methods without an error result return zero values.
type System struct {
	sys *core.System
	st  *store.Store // non-nil when New opened a file-backed store

	// reg and name are set on a hosted System.
	reg  *registry.Registry
	name string
}

// do runs fn on the campaign's core: the System's own, or the hosting
// registry's, leased for the call.
func (s *System) do(fn func(*core.System) error) error {
	if s.reg == nil {
		return fn(s.sys)
	}
	return s.reg.Do(s.name, fn)
}

// call runs f on the campaign's core (see do) and returns its results.
func call[T any](s *System, f func(*core.System) (T, error)) (v T, err error) {
	err = s.do(func(sys *core.System) (err error) { v, err = f(sys); return err })
	return v, err
}

// read runs f on the campaign's core (see do) and returns its result: the
// zero value when a hosted campaign cannot be leased.
func read[T any](s *System, f func(*core.System) T) (v T) {
	s.do(func(sys *core.System) error { v = f(sys); return nil })
	return v
}

// New creates a System over the built-in knowledge base.
func New(cfg Config) (*System, error) {
	k, err := kb.Default()
	if err != nil {
		return nil, err
	}
	var st *store.Store
	if cfg.StorePath != "" {
		st, err = store.Open(cfg.StorePath, k.Domains().Size())
		if err != nil {
			return nil, err
		}
	}
	cc := cfg.campaign()
	cc.KB = k
	cc.Store = st
	sys, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	if cfg.WALDir != "" {
		if _, err := sys.Recover(cfg.WALDir); err != nil {
			sys.Close()
			if st != nil {
				st.Close()
			}
			return nil, err
		}
	}
	return &System{sys: sys, st: st}, nil
}

// Recovery describes what New replayed from Config.WALDir.
type Recovery struct {
	// Enabled is true when a WAL is armed.
	Enabled bool
	// Records is how many durable records (publication + answers) were
	// replayed on boot.
	Records int
	// TornTail is true when the log ended in a torn, dropped record (the
	// previous process crashed mid-append; the record was never
	// acknowledged).
	TornTail bool
	// SnapshotUsed is true when the boot restored a state snapshot and
	// Records counts only the WAL suffix past SnapshotSeq.
	SnapshotUsed bool
	// SnapshotSeq is the WAL sequence the restored snapshot covered.
	SnapshotSeq uint64
	// SnapshotRejected carries the reason a present snapshot was not used
	// (torn, corrupt, or ahead of the durable log); the boot fell back to
	// a full replay. Empty when no snapshot existed or it was used.
	SnapshotRejected string
	// Seconds is the wall-clock recovery lag the boot paid.
	Seconds float64
}

// Recovery returns what New replayed from the WAL (zero value when no WAL
// is armed).
func (s *System) Recovery() Recovery {
	info := read(s, (*core.System).Recovery)
	return Recovery{
		Enabled:          info.Enabled,
		Records:          info.Records,
		TornTail:         info.TornTail,
		SnapshotUsed:     info.SnapshotUsed,
		SnapshotSeq:      info.SnapshotSeq,
		SnapshotRejected: info.SnapshotRejected,
		Seconds:          info.Duration.Seconds(),
	}
}

// Publish registers the campaign's tasks and runs Domain Vector Estimation
// over their text. Must be called exactly once, before Request/Submit.
func (s *System) Publish(tasks []Task) error {
	internal, err := toInternalTasks(tasks)
	if err != nil {
		return err
	}
	return s.do(func(sys *core.System) error { return sys.Publish(internal) })
}

// ValidateTasks reports the error Publish would return for a batch that is
// structurally unpublishable — a task with fewer than two choices, a golden
// truth out of range, a task ID used twice — without a System and without
// estimating any domain vector. Check a publication with it before creating
// the campaign it is for, so a rejected batch leaves no empty campaign behind.
func ValidateTasks(tasks []Task) error {
	k, err := kb.Default()
	if err != nil {
		return err
	}
	internal, err := toInternalTasks(tasks)
	if err != nil {
		return err
	}
	return core.ValidateTasks(internal, k.Domains().Size())
}

// Request serves the arriving worker up to k tasks: golden tasks first for
// unknown workers, then the highest-benefit regular tasks. k <= 0 uses the
// configured HITSize.
func (s *System) Request(workerID string, k int) ([]Task, error) {
	got, err := call(s, func(sys *core.System) ([]*model.Task, error) { return sys.Request(workerID, k) })
	if err != nil {
		return nil, err
	}
	out := make([]Task, 0, len(got))
	for _, it := range got {
		out = append(out, fromInternal(it))
	}
	return out, nil
}

// Submit records one answer from a worker.
func (s *System) Submit(workerID string, taskID, choice int) error {
	return s.do(func(sys *core.System) error { return sys.Submit(workerID, taskID, choice) })
}

// BatchStatus is the per-item outcome of SubmitBatch.
type BatchStatus struct {
	OK bool
	// Error is the rejection reason, empty when OK.
	Error string
}

// SubmitBatch records many answers in one call. Each item is validated
// independently — one bad answer never poisons the batch — and every
// accepted regular answer becomes durable in ONE write-ahead-log record
// (one write, at most one fsync), instead of one per answer. The resulting
// state is bit-identical to submitting the same answers one by one. The
// returned slice has one status per item, in input order; the error is
// batch-level (a durability failure: treat as 5xx, and see ErrDurability
// for what stops serving). See docs/protocol.md.
func (s *System) SubmitBatch(answers []Answer) ([]BatchStatus, error) {
	items := make([]core.BatchItem, len(answers))
	for i, a := range answers {
		items[i] = core.BatchItem{Worker: a.Worker, Task: a.TaskID, Choice: a.Choice}
	}
	got, err := call(s, func(sys *core.System) ([]core.BatchStatus, error) { return sys.SubmitBatch(items) })
	if err != nil {
		return nil, err
	}
	out := make([]BatchStatus, len(got))
	for i, st := range got {
		out[i] = BatchStatus{OK: st.OK, Error: st.Err}
	}
	return out, nil
}

// GoldenTaskIDs returns the IDs of the selected golden tasks.
func (s *System) GoldenTaskIDs() []int { return read(s, (*core.System).GoldenTasks) }

// Published reports whether a campaign is in place — via Publish or via
// WAL recovery on New.
func (s *System) Published() bool { return read(s, (*core.System).Published) }

// DomainNames returns the system's domain set (the 26 Yahoo! Answers
// domains for the default knowledge base).
func (s *System) DomainNames() []string {
	return read(s, func(sys *core.System) []string { return sys.Domains().Names() })
}

// DomainNames returns the built-in knowledge base's domain set without
// constructing a System — the domain taxonomy is a property of the KB,
// shared by every campaign.
func DomainNames() ([]string, error) {
	k, err := kb.Default()
	if err != nil {
		return nil, err
	}
	return k.Domains().Names(), nil
}

// CurrentResult returns the present (incrementally maintained) inferred
// truth for a task; Choice is -1 for golden or unknown tasks.
func (s *System) CurrentResult(taskID int) Result {
	res := Result{TaskID: taskID, Choice: NoTruth}
	s.do(func(sys *core.System) error { res.Choice, res.Confidence = sys.Result(taskID); return nil })
	return res
}

// WorkerQuality returns the current per-domain quality estimate for a
// worker, aligned with DomainNames.
func (s *System) WorkerQuality(workerID string) []float64 {
	return read(s, func(sys *core.System) []float64 { return sys.WorkerQuality(workerID) })
}

// Stats is a point-in-time view of the serving counters.
type Stats struct {
	// Answers is the number of accepted non-golden answers.
	Answers int64
	// SnapshotEpoch is the truth engine's mutation counter; it advances
	// with every accepted answer and batch-rerun swap.
	SnapshotEpoch uint64
	// RerunsCompleted and RerunsFailed count periodic batch re-inference
	// runs.
	RerunsCompleted int64
	RerunsFailed    int64
	// OpenTasks is the size of the live candidate index: non-golden tasks
	// still under their redundancy cap, maintained incrementally as
	// answers arrive. IndexEpoch is the index's generation counter — it
	// advances whenever a new immutable candidate array is published.
	OpenTasks  int
	IndexEpoch uint64
	// LeasesActive is the number of live assignment leases (always zero
	// without Config.LeaseTTL).
	LeasesActive int64
	// BatchesTotal counts the batch group records SubmitBatch logged (one
	// per call of regular answers) and BatchAnswersTotal the answers inside
	// them; single-submit traffic, golden answers included, leaves both
	// zero.
	BatchesTotal      int64
	BatchAnswersTotal int64
	// WALEnabled reports whether a write-ahead log is armed; WALLastSeq is
	// the sequence number of the last durable record. Both zero without a
	// WAL.
	WALEnabled bool
	WALLastSeq uint64
	// SnapshotLastSeq is the WAL sequence the newest state snapshot covers
	// (what a restart would restore instead of replaying); zero without one.
	SnapshotLastSeq uint64
}

// Stats returns the current serving counters. Safe to call concurrently
// with serving.
func (s *System) Stats() Stats {
	return read(s, func(sys *core.System) Stats {
		st := Stats{
			Answers:         sys.AnswerCount(),
			SnapshotEpoch:   sys.Epoch(),
			OpenTasks:       sys.OpenTasks(),
			IndexEpoch:      sys.IndexEpoch(),
			LeasesActive:    sys.ActiveLeases(),
			WALEnabled:      sys.Recovery().Enabled,
			WALLastSeq:      sys.WALSeq(),
			SnapshotLastSeq: sys.LastSnapshotSeq(),
		}
		st.RerunsCompleted, st.RerunsFailed = sys.Reruns()
		st.BatchesTotal, st.BatchAnswersTotal = sys.BatchCounts()
		return st
	})
}

// Close stops the background re-inference worker and flushes, fsyncs and
// closes the WAL and the worker store, so a graceful shutdown loses
// nothing. Do not serve after Close. A hosted System's
// campaign belongs to its registry: Close refuses it and closes nothing —
// end the campaign with Registry.Archive.
func (s *System) Close() error {
	if s.reg != nil {
		return fmt.Errorf("docs: campaign %q belongs to its registry: end it with Registry.Archive, or close the registry", s.name)
	}
	err := s.sys.Close()
	if s.st != nil {
		if cerr := s.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Results runs the final iterative truth inference over all collected
// answers, replaces this campaign's worker sessions in the worker store,
// and returns one Result per published non-golden task.
func (s *System) Results() ([]Result, error) {
	return call(s, func(sys *core.System) ([]Result, error) {
		res, err := sys.Results()
		if err != nil {
			return nil, err
		}
		tasks := sys.InferTasks()
		out := make([]Result, len(tasks))
		for i, t := range tasks {
			out[i] = Result{TaskID: t.ID, Choice: res.Truth[i], Confidence: mathx.Clone(res.S[i])}
		}
		return out, nil
	})
}

// InferTruth is the offline API: given tasks and a full set of collected
// answers, it runs DVE and the iterative truth inference and returns one
// Result per task, in input order. Worker qualities start at the default
// prior; use a System with golden tasks for profiled inference.
func InferTruth(tasks []Task, answers []Answer) ([]Result, error) {
	sys, err := New(Config{GoldenCount: -1, RerunEvery: -1})
	if err != nil {
		return nil, err
	}
	internal, err := toInternalTasks(tasks)
	if err != nil {
		return nil, err
	}
	if err := sys.sys.Publish(internal); err != nil {
		return nil, err
	}
	as := model.NewAnswerSet()
	for _, a := range answers {
		if err := as.Add(model.Answer{Worker: a.Worker, Task: a.TaskID, Choice: a.Choice}); err != nil {
			return nil, err
		}
	}
	m := sys.sys.Domains().Size()
	res, err := truth.Infer(internal, as, m, truth.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(internal))
	for i, t := range internal {
		out[i] = Result{TaskID: t.ID, Choice: res.Truth[i], Confidence: mathx.Clone(res.S[i])}
	}
	return out, nil
}

func toInternalTasks(tasks []Task) ([]*model.Task, error) {
	internal := make([]*model.Task, 0, len(tasks))
	for _, t := range tasks {
		it, err := toInternal(t)
		if err != nil {
			return nil, err
		}
		internal = append(internal, it)
	}
	return internal, nil
}

func toInternal(t Task) (*model.Task, error) {
	if len(t.Choices) < 2 {
		return nil, fmt.Errorf("docs: task %d needs at least 2 choices", t.ID)
	}
	truthIdx := model.NoTruth
	if t.GoldenTruth != NoTruth {
		if t.GoldenTruth < 0 || t.GoldenTruth >= len(t.Choices) {
			return nil, fmt.Errorf("docs: task %d golden truth %d out of range", t.ID, t.GoldenTruth)
		}
		truthIdx = t.GoldenTruth
	}
	return &model.Task{
		ID:         t.ID,
		Text:       t.Text,
		Choices:    append([]string(nil), t.Choices...),
		Truth:      truthIdx,
		TrueDomain: model.NoTruth,
	}, nil
}

func fromInternal(it *model.Task) Task {
	truthIdx := NoTruth
	if it.Truth != model.NoTruth {
		truthIdx = it.Truth
	}
	return Task{
		ID:          it.ID,
		Text:        it.Text,
		Choices:     append([]string(nil), it.Choices...),
		GoldenTruth: truthIdx,
	}
}
