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
// Every mutation is applied by the campaign's one writer goroutine, in
// arrival order, through the path a recovery replays the log with.
//
// The periodic full re-inference (Config.RerunEvery) runs on the writer,
// inside the submit that reaches a z-th answer — a batch's last — where a
// replay of the log runs it too: a campaign serves exactly what a boot of
// its log would.
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
// A System is a campaign, and every campaign is a registry's: New opens a
// registry of one over its Config and hosts one campaign named "default"
// in it, so New and OpenRegistry share one layout, one boot and one store.
// Two artifacts survive a restart. Config.StorePath keeps the long-run
// per-worker statistics (the paper stores these in the system database so
// returning workers keep their profile across requesters); it names a log
// directory of the same write-ahead log a campaign uses, one fsynced record
// per profiling merge or changed session, and defaults to <WALDir>/store.
// A campaign's sessions live under its name there, so a reopened System
// replaces its own, and two Systems over one StorePath are one campaign
// "default": campaigns that must keep their sessions apart are a
// registry's, named apart. Config.WALDir keeps the campaign itself, under
// <WALDir>/campaigns/default: every accepted publication and answer is
// appended to a segmented, CRC-checked write-ahead log (package
// docs/internal/wal) with group-commit batching, and New replays the log —
// the intact segment records, dropping a torn final record — through the
// ordinary serial submit path before serving. Because
// concurrent serving is provably equivalent to a serial replay of the
// chronological answer log, the recovered state is bit-identical to an
// uninterrupted serial run of the logged stream; one scenario driver
// (docs/internal/crashtest) asserts exactly that, for the core and the
// registry alike, at every acknowledged boundary and over randomized kill
// points.
// New refuses a WALDir holding any other campaign (open that root with
// OpenRegistry) and one holding WAL segments at its top level: the layout
// older versions of New wrote, which this one does not open.
//
// Durability levels: by default an acknowledged Submit has reached the OS
// (survives process crashes); Config.WALSyncEveryBatch adds one fsync per
// group-commit batch (survives power loss). The segments are the only
// copy of the record stream and are never deleted. A replay runs only the
// last periodic re-inference its log reaches, so it costs one incremental
// pass over the records plus one full inference. A hibernating registry
// campaign also writes a state snapshot of the truth engine's numbers; its
// wake is the same replay, skipping the math the snapshot covers and
// installing its numbers instead — bit-identical to a full replay, which it
// falls back to loudly if the snapshot is torn, corrupt, or ahead of the
// durable log. See docs/persistence.md.
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
// (<dir>/campaigns/<name>) and the shared store logs under <dir>/store, the
// layout of New's registry of one; OpenRegistry recovers every campaign a
// previous process left behind. Archive ends a campaign for good; Close
// shuts the whole registry down gracefully. See docs/multi-campaign.md.
package docs

import (
	"fmt"
	"time"

	"docs/internal/core"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/registry"
	"docs/internal/truth"
	"docs/internal/wal"
)

// NoTruth marks an unknown ground truth.
const NoTruth = -1

// ErrDurability marks a failed durability promise: the mutation could not
// be logged to the WAL, and the campaign stops serving the state it was
// applied to: its registry drops the campaign's core and wakes it from its
// log on the next call.
// Check with errors.Is; servers should answer 5xx, not 4xx.
var ErrDurability = core.ErrDurability

// ErrStopped marks a call its campaign stopped under twice: hibernated,
// archived or closed before the call reached the core, and again on the
// woken one. Nothing of the call was applied; it may be retried.
var ErrStopped = core.ErrStopped

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
	// RerunEvery re-runs full iterative truth inference every z answers,
	// inside the submit that reaches the z-th, once for a batch at its last
	// (0 = the default 100, negative = never).
	RerunEvery int
	// StorePath is the log directory that persists worker statistics
	// across campaigns (empty = <WALDir>/store when WALDir is set, else
	// memory-only).
	StorePath string
	// WALDir is the registry root and arms the write-ahead log: every
	// accepted Publish/Submit is appended durably (group-commit batched)
	// under <WALDir>/campaigns/<name>, and New and OpenRegistry replay
	// whatever a previous process left there before serving. Empty keeps
	// every campaign memory-only. See the Persistence section of the
	// package comment.
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

	// MaxLiveCampaigns caps how many campaigns are resident in memory at
	// once; past the cap the least-recently-used live campaign hibernates
	// (memory released; a final snapshot only if answers arrived since the
	// last) and wakes on its next request. Also makes boot lazy: campaign
	// logs replay on first touch, not at open. Requires WALDir. Zero keeps
	// every campaign live forever (the pre-hibernation behavior).
	MaxLiveCampaigns int
	// HibernateAfter hibernates any campaign idle for this long. Requires
	// WALDir. Zero disables idle hibernation. See docs/multi-campaign.md
	// for the lifecycle and wake contract.
	HibernateAfter time.Duration
}

// campaign maps the per-campaign tuning fields onto the serving core's
// config: the one place the facade's names meet core's, used by every
// registry New and OpenRegistry open. WALDir, StorePath, MaxLiveCampaigns
// and HibernateAfter say where campaigns live and how many stay resident,
// and are consumed by the registry itself.
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
		WALSync:        walSync,
		LeaseTTL:       cfg.LeaseTTL,
	}
}

// System is a running DOCS campaign, hosted by a registry: the registry of
// one New opens for it, or an OpenRegistry one (Registry.Create,
// Registry.Campaign). A System holds no core: each method runs on the
// campaign's core through its registry (see Registry.Do). On a System
// whose campaign is archived or whose registry is closed, the methods
// without an error result return zero values.
type System struct {
	reg  *registry.Registry
	name string
	own  bool // New opened reg for this System, so Close closes it
}

// do runs fn on the campaign's core through the registry (Registry.Do).
func (s *System) do(fn func(*core.System) error) error { return s.reg.Do(s.name, fn) }

// call runs f on the campaign's core (see do) and returns its results.
func call[T any](s *System, f func(*core.System) (T, error)) (v T, err error) {
	err = s.do(func(sys *core.System) (err error) { v, err = f(sys); return err })
	return v, err
}

// read runs f on the campaign's core (see do) and returns its result: the
// zero value when a hosted campaign cannot serve the call.
func read[T any](s *System, f func(*core.System) T) (v T) {
	s.do(func(sys *core.System) error { v = f(sys); return nil })
	return v
}

// defaultCampaign names the one campaign of New's registry.
const defaultCampaign = "default"

// New creates a System over the built-in knowledge base: a registry of one
// over cfg, hosting one campaign named "default". The registry creates the
// campaign on a fresh root and recovers it from a root that holds it; a
// root holding any other campaign is refused.
func New(cfg Config) (*System, error) {
	r, err := OpenRegistry(cfg)
	if err != nil {
		return nil, err
	}
	switch names := r.reg.Names(); {
	case len(names) == 0:
		err = r.reg.Create(defaultCampaign)
	case len(names) > 1 || names[0] != defaultCampaign:
		err = fmt.Errorf("docs: %s hosts the campaigns %q, not a System's one %q: open it with OpenRegistry", cfg.WALDir, names, defaultCampaign)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return &System{reg: r.reg, name: defaultCampaign, own: true}, nil
}

// Recovery describes what a campaign's most recent boot or wake replayed
// from its log; Duration is the recovery lag it paid.
type Recovery = core.RecoveryInfo

// Recovery returns what the campaign's most recent boot or wake replayed
// from its WAL (zero value when no WAL is armed).
func (s *System) Recovery() Recovery { return read(s, (*core.System).Recovery) }

// Publish registers the campaign's tasks and runs Domain Vector Estimation
// over their text. Must be called exactly once, before Request/Submit.
func (s *System) Publish(tasks []Task) error {
	p, err := CheckPublication(tasks)
	if err != nil {
		return err
	}
	return s.PublishChecked(p)
}

// Publication is a batch of tasks checked once, by CheckPublication, for
// PublishChecked to publish. It is published once, and reads the tasks it
// was checked over until then: leave them as they are meanwhile.
type Publication core.Batch

// CheckPublication reports the error Publish would return for a batch that
// is structurally unpublishable — a task with fewer than two choices, a
// golden truth out of range, a task ID used twice — without a System and
// without estimating any domain vector, and otherwise returns the batch
// checked. Check a publication with it before creating the campaign it is
// for, so a rejected batch leaves no empty campaign behind, then publish it
// with PublishChecked, which does neither again. Nothing is converted: the
// publish encodes the tasks straight into the publication record, whose
// bytes the campaign then holds.
func CheckPublication(tasks []Task) (*Publication, error) {
	k, err := kb.Default()
	if err != nil {
		return nil, err
	}
	batch, err := core.CheckEach(len(tasks), k.Domains().Size(), func(i int) model.Task {
		t := &tasks[i]
		return model.Task{ID: t.ID, Text: t.Text, Choices: t.Choices, Truth: t.GoldenTruth, TrueDomain: model.NoTruth}
	})
	return (*Publication)(batch), err
}

// PublishChecked is Publish for a batch CheckPublication has checked.
func (s *System) PublishChecked(p *Publication) error {
	return s.do(func(sys *core.System) error { return sys.PublishBatch((*core.Batch)(p)) })
}

// Request serves the arriving worker up to k tasks: golden tasks first for
// unknown workers, then the highest-benefit regular tasks. k <= 0 uses the
// configured HITSize.
func (s *System) Request(workerID string, k int) ([]Task, error) {
	return call(s, func(sys *core.System) ([]Task, error) {
		served, err := sys.Request(workerID, k)
		if err != nil {
			return nil, err
		}
		// Each task is built once, from the campaign's task table.
		out := make([]Task, len(served))
		sys.Serve(served, func(i int, text string, choices []string) {
			out[i] = Task{ID: served[i].ID, Text: text, Choices: choices, GoldenTruth: served[i].Truth}
		})
		return out, nil
	})
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

// Stats is a point-in-time view of a campaign's serving counters, with
// the recovery its most recent boot or wake ran; the JSON tags are its
// /stats keys.
type Stats = core.Stats

// Stats returns the campaign's serving counters, read in one call. Safe
// to call concurrently with serving.
func (s *System) Stats() Stats { return read(s, (*core.System).Stats) }

// Close closes the registry New opened for the System: it flushes, fsyncs
// and closes the WAL and the worker store, so a graceful shutdown loses
// nothing. Do not serve after Close. A campaign a Registry hosts belongs to
// it: Close refuses its System and closes nothing — end the campaign with
// Registry.Archive.
func (s *System) Close() error {
	if !s.own {
		return fmt.Errorf("docs: campaign %q belongs to its registry: end it with Registry.Archive, or close the registry", s.name)
	}
	return s.reg.Close()
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
		return results(sys.InferIDs(), res), nil
	})
}

// results pairs each task with its inferred truth, aligned by index.
func results(ids []int, res *truth.Result) []Result {
	out := make([]Result, len(ids))
	for i, id := range ids {
		out[i] = Result{TaskID: id, Choice: res.Truth[i], Confidence: mathx.Clone(res.S[i])}
	}
	return out
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
	defer sys.Close()
	p, err := CheckPublication(tasks)
	if err != nil {
		return nil, err
	}
	return call(sys, func(c *core.System) ([]Result, error) {
		if err := c.PublishBatch((*core.Batch)(p)); err != nil {
			return nil, err
		}
		as := model.NewAnswerSet()
		for _, a := range answers {
			if err := as.Add(model.Answer{Worker: a.Worker, Task: a.TaskID, Choice: a.Choice}); err != nil {
				return nil, err
			}
		}
		// No task is golden, so every task is inferred, in input order.
		res, err := truth.Infer(c.InferTasks(), as, c.Domains().Size(), truth.Options{})
		if err != nil {
			return nil, err
		}
		return results(c.InferIDs(), res), nil
	})
}
