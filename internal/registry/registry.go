// Package registry hosts many named DOCS campaigns in one process, the
// multi-tenant deployment shape the paper implies: requesters come and go,
// each bringing their own task set (a campaign), while the worker crowd is
// shared. Each campaign is a full core.System — its own task set, golden
// selection, truth-inference state and WAL — but every campaign sees one
// shared long-run worker store, so a worker profiled on requester A's
// golden tasks starts requester B's campaign with their per-domain quality
// vector already in place (the paper's returning-worker semantics,
// Theorem 1) instead of re-running the golden gauntlet.
//
// # On-disk layout
//
// A registry opened with a WAL root owns that directory:
//
//	<root>/store/             shared worker store (its own log of KindStore records)
//	<root>/campaigns/<name>/  one WAL namespace per campaign
//	<root>/campaigns/<name>/archived   marker: campaign closed for good
//
// A root still holding a store.json or store.json.delta — the JSON store
// older versions kept — is refused at Open: nothing reads that format.
//
// Open enumerates <root>/campaigns and recovers every non-archived
// campaign through core.Recover before serving. Replay order across
// campaigns is irrelevant by construction: the only store writes replay
// can perform are merge-once profiling repairs (store.MergeProfile, keyed
// by campaign-scoped profile IDs — each campaign's ProfileScope is its
// name), which are idempotent and campaign-local, and every other store
// read a campaign ever made is restored from its own log's seed records
// rather than re-read. Each campaign's recovered state is therefore a pure
// function of its own log plus the store log — the multi-campaign crash
// suite asserts exactly that, campaign by campaign, against serial
// references, and the live-vs-recovered suite asserts it against the
// pre-kill live system.
//
// # Lifecycle
//
// A campaign is in one of three states:
//
//	live ──(idle / LRU eviction / Hibernate)──▶ hibernated
//	live ◀──(any request: Get wakes it)──────── hibernated
//	live or hibernated ──(Archive)──▶ archived   (terminal)
//
// Create registers a live campaign and arms its WAL; the returned
// core.System serves Publish/Request/Submit/Results as usual. Hibernation
// releases an idle campaign's memory: its core is drained, a final state
// snapshot is written by one last snapshot pass if any answer lies past
// the newest one (a campaign nobody answered writes nothing), the WAL is
// closed — fsynced first unless already known synced — and the serving
// core is dropped: the campaign's entire durable state stays on disk. A
// request to a hibernated campaign wakes it first: Get rebuilds the core
// via the ordinary recovery ladder (snapshot restore + WAL-suffix
// replay), under a per-campaign single-flight guard so a stampede of cold
// requests replays exactly once. Config.HibernateAfter hibernates
// campaigns idle past the deadline; Config.MaxLiveCampaigns bounds the
// resident set with least-recently-used eviction, and makes boot LAZY —
// namespaces are listed, not replayed, so a million-campaign root boots
// in O(readdir) and each campaign pays its replay on first touch.
// Hibernate/wake cycles are invisible at the bit level: the woken state
// is the serial-replay state, which the live-vs-recovered suite proves
// equal to the live fingerprint at every acknowledged boundary.
//
// Archive ends a campaign for good: its system (if resident) is drained
// and closed, an `archived` marker is written, and later boots list it
// without replaying. Close shuts the whole registry down gracefully
// (every resident campaign's WAL flushed and fsynced, then the shared
// store released).
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"docs/internal/core"
	"docs/internal/kb"
	"docs/internal/store"
	"docs/internal/wal"
)

// Errors the lifecycle methods return; test with errors.Is.
var (
	ErrNotFound = errors.New("registry: no such campaign")
	ErrArchived = errors.New("registry: campaign is archived")
	ErrExists   = errors.New("registry: campaign already exists")
	ErrClosed   = errors.New("registry: closed")
)

// MaxNameLen bounds campaign names; names become directory names, so the
// bound keeps paths portable.
const MaxNameLen = 64

// campaignsDir is the subdirectory of the WAL root holding one namespace
// per campaign.
const campaignsDir = "campaigns"

// archivedMarker is the file whose presence in a campaign's WAL namespace
// marks it archived; boots list but do not replay it.
const archivedMarker = "archived"

// storeDir is the shared worker store's default log directory under the WAL
// root.
const storeDir = "store"

// wakeWindow bounds the ring of recent wake latencies behind WakeStats.
const wakeWindow = 512

// Config configures a Registry: where it lives, how many campaigns stay
// resident, and the template every campaign is built from.
type Config struct {
	// WALDir is the registry's root directory: the shared store and every
	// campaign's WAL namespace live under it, and Open replays whatever a
	// previous process left there. Empty keeps the whole registry
	// memory-only (campaigns are not durable and vanish with the process).
	WALDir string
	// StorePath is the shared worker store's log directory. Empty selects
	// <WALDir>/store when WALDir is set (recovery correctness wants the
	// store persistent — see the package comment), else memory-only.
	StorePath string

	// MaxLiveCampaigns caps how many campaigns are resident (live) at
	// once. Past the cap the least-recently-touched live campaign is
	// hibernated, and boot becomes lazy: Open lists every namespace but
	// replays none — each campaign wakes on its first request. Requires
	// WALDir (a memory-only campaign released from memory would be
	// lost). 0 means unlimited: every campaign boots and stays live, the
	// pre-hibernation behavior.
	MaxLiveCampaigns int
	// HibernateAfter hibernates any live campaign that has not been
	// touched (Get/Create) for this long. Requires WALDir. 0 disables
	// idle hibernation.
	HibernateAfter time.Duration
	// Clock overrides time.Now for idle accounting and wake timing —
	// deterministic hibernation tests inject a fake clock here. Nil uses
	// the real clock.
	Clock func() time.Time

	// Campaign is the template every campaign the registry creates or
	// recovers is built from. The registry completes each copy: KB when
	// nil (the curated default, shared by all campaigns), Store (always
	// the registry's shared store) and ProfileScope (the campaign's name).
	Campaign core.Config
}

// Info describes one campaign in List output. The JSON tags are the
// GET /campaigns wire format.
type Info struct {
	// Name is the campaign's registry key (also its URL path segment and
	// WAL directory name).
	Name string `json:"name"`
	// Archived campaigns are closed for good: listed, never served or
	// replayed.
	Archived bool `json:"archived"`
	// Hibernated campaigns are durable but not resident: the next request
	// wakes them.
	Hibernated bool `json:"hibernated"`
	// Published and Answers are the campaign's serving state — for a
	// hibernated or archived campaign, its state when it left memory this
	// process, or zero when it has not been resident this boot (cold logs
	// are not replayed, so their counters are unknown until first touch).
	Published bool  `json:"published"`
	Answers   int64 `json:"answers"`
	// RecoveredRecords is how many WAL records the campaign's most recent
	// replay (boot or wake) applied.
	RecoveredRecords int `json:"recovered_records"`
	// Wakes is how many times the campaign was reactivated from
	// hibernation this process.
	Wakes int `json:"wakes"`
}

// campaignState is the lifecycle position of one registry entry.
type campaignState int

const (
	stateLive campaignState = iota
	stateHibernated
	stateArchived
)

// campaign is one registry entry.
type campaign struct {
	// mu serializes this campaign's lifecycle transitions (wake,
	// hibernate, archive, close): whoever holds it is the only goroutine
	// that may install or remove the serving core. It doubles as the
	// single-flight wake guard — a stampede of cold requests queues here
	// and every waiter but the first finds the campaign live. Lock order:
	// c.mu may be taken before r.mu; never the reverse. docs-lint enforces
	// that order from the declaration below.
	//
	//docs:lockorder c.mu < r.mu
	mu sync.Mutex

	// sys is the serving core, nil while hibernated or archived. Atomic
	// so Get's fast path loads it with no lock at all.
	sys atomic.Pointer[core.System]

	// lastTouch is the registry clock's UnixNano at the campaign's last
	// Get/Create — the LRU recency stamp.
	lastTouch atomic.Int64

	// The fields below are guarded by the registry's mu.
	state campaignState
	// Serving counters snapshotted when the campaign last left memory
	// (hibernate or archive); zero for campaigns not resident this boot.
	published bool
	answers   int64
	recovered int
	wakes     int
}

// Registry manages many named campaigns over one shared worker store.
// All methods are safe for concurrent use; the *core.System handles it
// returns are themselves concurrent-safe serving cores.
type Registry struct {
	cfg   Config
	store *store.Store

	mu        sync.RWMutex
	campaigns map[string]*campaign
	closed    bool

	// liveCount tracks resident campaigns (sys != nil) so the LRU cap
	// check is O(1) on the hot path.
	liveCount atomic.Int64

	wakes atomic.Int64

	// wakeMu guards the ring of recent wake latencies.
	wakeMu   sync.Mutex
	wakeDur  []time.Duration
	wakeNext int

	quit chan struct{}
	wg   sync.WaitGroup
}

// ValidateName reports whether name is a legal campaign name: 1 to
// MaxNameLen characters from [A-Za-z0-9_-], starting with a letter or
// digit. Legal names are safe as path components (no separators, no "."
// or "..") and as URL path segments without escaping.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("registry: empty campaign name")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("registry: campaign name longer than %d bytes", MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return fmt.Errorf("registry: campaign name %q: byte %d must be [A-Za-z0-9_-] (no leading - or _)", name, i)
		}
	}
	return nil
}

// Open creates a registry and, when cfg.WALDir is set, boots every
// non-archived campaign a previous process left under it: replayed live
// when the resident set is unbounded, listed cold (hibernated, woken on
// first touch) when Config.MaxLiveCampaigns caps it.
func Open(cfg Config) (*Registry, error) {
	if (cfg.MaxLiveCampaigns > 0 || cfg.HibernateAfter > 0) && cfg.WALDir == "" {
		return nil, fmt.Errorf("registry: hibernation (MaxLiveCampaigns/HibernateAfter) requires WALDir: releasing a memory-only campaign would lose it")
	}
	if cfg.Campaign.KB == nil {
		k, err := kb.Default()
		if err != nil {
			return nil, err
		}
		cfg.Campaign.KB = k
	}
	path := cfg.StorePath
	if cfg.WALDir != "" {
		for _, name := range []string{"store.json", "store.json.delta"} { // the retired JSON store
			if _, err := os.Lstat(filepath.Join(cfg.WALDir, name)); err == nil {
				return nil, fmt.Errorf("registry: %s holds %s, a worker store in the retired JSON format, which this version cannot read", cfg.WALDir, name)
			}
		}
		if path == "" {
			// Default the shared store next to the campaign logs: recovery
			// exactness depends on the store being persistent (replay then
			// never mutates it), so a durable registry gets a durable store.
			path = filepath.Join(cfg.WALDir, storeDir)
		}
	}
	st, err := store.Open(path, cfg.Campaign.KB.Domains().Size())
	if err != nil {
		return nil, err
	}
	r := &Registry{cfg: cfg, store: st,
		campaigns: make(map[string]*campaign), quit: make(chan struct{})}
	if cfg.WALDir != "" {
		if err := r.recoverAll(); err != nil {
			r.Close()
			return nil, err
		}
	}
	if cfg.HibernateAfter > 0 {
		r.wg.Add(1)
		go r.idleSweeper()
	}
	return r, nil
}

// now reads the registry clock.
func (r *Registry) now() time.Time {
	if r.cfg.Clock != nil {
		return r.cfg.Clock()
	}
	//docs:allow clock injection-point default; every other registry read goes through r.now()
	return time.Now()
}

// recoverAll enumerates <WALDir>/campaigns and boots every namespace
// found. Archived ones are listed; with a live-set cap the rest are
// listed COLD — no replay at all, each campaign wakes on first touch, so
// boot lag is O(readdir) regardless of how many campaigns the root holds.
// Without a cap every non-archived campaign is replayed — CONCURRENTLY,
// up to one replay per CPU. Concurrent boot is safe: replay's only store
// writes are idempotent merge-once profiling repairs under
// campaign-scoped profile IDs (disjoint across campaigns), and seeds
// replay from each campaign's own log instead of reading the store — so
// each campaign's recovered state is a pure function of its own log plus
// the store file and boot order cannot affect it. The one residual
// cross-campaign write interaction is documented in
// docs/multi-campaign.md: two campaigns repairing lost merges for the
// SAME worker concurrently can apply them in either order, which perturbs
// only the worker's combined store record (each campaign's own state is
// anchored and unaffected). For a registry hosting many campaigns this
// turns boot lag from the sum of the replays into roughly the longest one.
func (r *Registry) recoverAll() error {
	root := filepath.Join(r.cfg.WALDir, campaignsDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	// Every campaign lives under root: its own entry must survive power
	// loss before any campaign's can.
	if err := wal.SyncDir(r.cfg.WALDir); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			return fmt.Errorf("registry: stray file %q in %s", e.Name(), root)
		}
		if err := ValidateName(e.Name()); err != nil {
			return fmt.Errorf("registry: %s holds a directory that is not a campaign: %w", root, err)
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	bootStamp := r.now().UnixNano()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, name := range names {
		dir := filepath.Join(root, name)
		if _, err := os.Stat(filepath.Join(dir, archivedMarker)); err == nil {
			mu.Lock()
			r.campaigns[name] = &campaign{state: stateArchived}
			mu.Unlock()
			continue
		} else if !errors.Is(err, os.ErrNotExist) {
			wg.Wait()
			return fmt.Errorf("registry: campaign %q: %w", name, err)
		}
		if r.cfg.MaxLiveCampaigns > 0 {
			// Lazy boot: the campaign's state stays on disk until its first
			// request wakes it, which is what bounds boot time and RSS at
			// million-campaign density.
			c := &campaign{state: stateHibernated}
			c.lastTouch.Store(bootStamp)
			mu.Lock()
			r.campaigns[name] = c
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(name, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sys, recovered, err := r.openCampaign(name, dir)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("registry: recover campaign %q: %w", name, err)
				}
				return
			}
			c := &campaign{state: stateLive, recovered: recovered}
			c.sys.Store(sys)
			c.lastTouch.Store(bootStamp)
			r.liveCount.Add(1)
			r.campaigns[name] = c
		}(name, dir)
	}
	wg.Wait()
	if firstErr != nil {
		// The caller closes the registry, which shuts down whatever booted.
		return firstErr
	}
	return nil
}

// openCampaign builds one campaign's core.System over the shared store and,
// when the registry is durable, arms (and replays) its WAL namespace. The
// campaign name becomes its ProfileScope, so profiling merges from
// different campaigns never alias in the shared store's merge-once ledger.
// Returns the serving core and how many WAL records the replay applied.
func (r *Registry) openCampaign(name, dir string) (*core.System, int, error) {
	cc := r.cfg.Campaign
	cc.Store = r.store
	cc.ProfileScope = name
	sys, err := core.New(cc)
	if err != nil {
		return nil, 0, err
	}
	recovered := 0
	if dir != "" {
		info, err := sys.Recover(dir)
		if err != nil {
			sys.Close()
			return nil, 0, err
		}
		recovered = info.Records
	}
	return sys, recovered, nil
}

// dir returns the campaign's WAL namespace ("" for memory-only registries).
func (r *Registry) dir(name string) string {
	if r.cfg.WALDir == "" {
		return ""
	}
	return filepath.Join(r.cfg.WALDir, campaignsDir, name)
}

// Create registers a new campaign and returns its serving core. The name
// must validate, and must not collide with any live, hibernated or
// archived campaign.
func (r *Registry) Create(name string) (*core.System, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	// Uniqueness is enforced case-insensitively: names become directory
	// names, and on a case-insensitive filesystem "Foo" and "foo" would
	// silently share one WAL namespace — two campaigns interleaving one
	// log. Rejecting the collision here keeps the layout portable.
	for existing := range r.campaigns {
		if strings.EqualFold(existing, name) {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q (collides with %q)", ErrExists, name, existing)
		}
	}
	// The campaign's directory is created, parent entry fsynced, by the
	// WAL its Recover opens.
	sys, recovered, err := r.openCampaign(name, r.dir(name))
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	c := &campaign{state: stateLive, recovered: recovered}
	c.sys.Store(sys)
	c.lastTouch.Store(r.now().UnixNano())
	r.liveCount.Add(1)
	r.campaigns[name] = c
	r.mu.Unlock()
	r.enforceCap()
	return sys, nil
}

// Get returns the named campaign's serving core, waking it first when it
// is hibernated. The fast path — a resident campaign — is one map read
// and one atomic load, with no per-campaign lock.
func (r *Registry) Get(name string) (*core.System, error) {
	r.mu.RLock()
	closed := r.closed
	c := r.campaigns[name]
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	c.lastTouch.Store(r.now().UnixNano())
	if sys := c.sys.Load(); sys != nil {
		return sys, nil
	}
	sys, err := r.wake(name, c)
	if err != nil {
		return nil, err
	}
	// Admitting the woken campaign can push the resident set past the
	// cap; evict outside the campaign's own transition lock (eviction
	// locks OTHER campaigns' transition locks, and the fresh wake is the
	// most recently touched entry, so it is never its own victim).
	r.enforceCap()
	return sys, nil
}

// wake reactivates a hibernated campaign through the ordinary recovery
// ladder: snapshot restore plus WAL-suffix replay (a clean hibernate left
// a snapshot covering the whole log, so the suffix is empty). The
// campaign's transition lock is the single-flight guard: a stampede of
// cold requests queues here, the first waiter replays, and every other
// waiter finds the campaign live and returns the same core.
func (r *Registry) wake(name string, c *campaign) (*core.System, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sys := c.sys.Load(); sys != nil {
		return sys, nil // another waiter already woke it
	}
	r.mu.RLock()
	closed, state := r.closed, c.state
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if state == stateArchived {
		return nil, fmt.Errorf("%w: %q", ErrArchived, name)
	}
	dir := r.dir(name)
	if dir == "" {
		// Unreachable: hibernation requires WALDir (checked in Open), and
		// memory-only campaigns are always resident. Guarded anyway — an
		// empty-dir openCampaign would silently produce a blank campaign.
		return nil, fmt.Errorf("registry: wake %q: no WAL namespace", name)
	}
	start := r.now()
	sys, recovered, err := r.openCampaign(name, dir)
	if err != nil {
		return nil, fmt.Errorf("registry: wake %q: %w", name, err)
	}
	elapsed := r.now().Sub(start)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		sys.Close()
		return nil, ErrClosed
	}
	c.state = stateLive
	c.recovered = recovered
	c.wakes++
	r.mu.Unlock()
	c.sys.Store(sys)
	c.lastTouch.Store(r.now().UnixNano())
	r.liveCount.Add(1)
	r.wakes.Add(1)
	r.observeWake(elapsed)
	return sys, nil
}

// Hibernate releases the named campaign's memory: the serving core is
// drained, a final state snapshot is written by one last snapshot pass if
// an answer lies past the newest one, the WAL is closed (fsynced only if a
// byte of it may be unsynced), and the core is dropped. A campaign with no
// answer since its snapshot — or none at all — writes nothing. The
// campaign stays listed and any later request wakes it. Hibernating an
// already-hibernated campaign is a no-op. An error
// after the drain means the final snapshot could not be written — the
// campaign is hibernated regardless (its state is durable in the WAL) and
// the next wake pays a longer replay; nothing is lost. Requests holding
// the campaign's *core.System fail once it closes, exactly as with
// Archive.
func (r *Registry) Hibernate(name string) error {
	if r.cfg.WALDir == "" {
		return fmt.Errorf("registry: hibernate %q: memory-only registries cannot hibernate", name)
	}
	r.mu.RLock()
	closed := r.closed
	c := r.campaigns[name]
	r.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if c == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	_, err := r.hibernate(name, c)
	return err
}

// hibernate performs the live → hibernated transition under the
// campaign's transition lock. Returns whether a resident core was
// actually released. A Get racing the drain queues on the same lock and
// wakes the campaign right back up once the hibernate completes — so a
// request never observes a half-drained core, and an acknowledged answer
// is always durable before the drain's final fsync (Submit acknowledges
// only after its group-commit batch is down).
func (r *Registry) hibernate(name string, c *campaign) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sys := c.sys.Load()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false, ErrClosed
	}
	if c.state == stateArchived {
		r.mu.Unlock()
		return false, fmt.Errorf("%w: %q", ErrArchived, name)
	}
	if sys == nil {
		r.mu.Unlock()
		return false, nil // already hibernated
	}
	// Snapshot the serving counters for List, flip the state, and pull
	// the core so no new handle resolves while the drain runs.
	c.published = sys.Published()
	c.answers = sys.AnswerCount()
	c.state = stateHibernated
	r.mu.Unlock()
	c.sys.Store(nil)
	r.liveCount.Add(-1)

	// Drain + final snapshot (if answered since the last one) + release,
	// outside every registry lock: only requests to THIS campaign wait (on
	// c.mu), every other campaign serves on.
	if err := sys.Hibernate(); err != nil {
		return true, fmt.Errorf("registry: hibernate %q: %w", name, err)
	}
	return true, nil
}

// enforceCap hibernates least-recently-touched live campaigns until the
// resident set fits Config.MaxLiveCampaigns again.
func (r *Registry) enforceCap() {
	max := r.cfg.MaxLiveCampaigns
	if max <= 0 {
		return
	}
	for int(r.liveCount.Load()) > max {
		name, c := r.coldestLive()
		if c == nil {
			return
		}
		if _, err := r.hibernate(name, c); errors.Is(err, ErrClosed) {
			return
		}
		// A failed final snapshot still released the core (liveCount
		// dropped), and a vacuous hibernate means a racing evictor got
		// there first — either way the loop re-reads liveCount and makes
		// progress.
	}
}

// coldestLive returns the live campaign with the oldest touch stamp
// (ties broken by name for determinism), or nil when none is live.
func (r *Registry) coldestLive() (string, *campaign) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var (
		bestName  string
		best      *campaign
		bestTouch int64
	)
	for name, c := range r.campaigns {
		if c.sys.Load() == nil {
			continue
		}
		t := c.lastTouch.Load()
		if best == nil || t < bestTouch || (t == bestTouch && name < bestName) {
			best, bestName, bestTouch = c, name, t
		}
	}
	return bestName, best
}

// SweepIdle hibernates every live campaign untouched for at least
// Config.HibernateAfter and returns how many it released. The background
// sweeper calls this periodically; tests with an injected Clock call it
// directly for deterministic idle transitions.
func (r *Registry) SweepIdle() int {
	after := r.cfg.HibernateAfter
	if after <= 0 {
		return 0
	}
	cutoff := r.now().Add(-after).UnixNano()
	type cand struct {
		name string
		c    *campaign
	}
	var cands []cand
	r.mu.RLock()
	for name, c := range r.campaigns {
		if c.sys.Load() != nil && c.lastTouch.Load() <= cutoff {
			cands = append(cands, cand{name, c})
		}
	}
	r.mu.RUnlock()
	released := 0
	for _, cd := range cands {
		if cd.c.lastTouch.Load() > cutoff {
			continue // touched since the scan; a fresh deadline applies
		}
		ok, err := r.hibernate(cd.name, cd.c)
		if errors.Is(err, ErrClosed) {
			break
		}
		if ok {
			released++
		}
	}
	return released
}

// idleSweeper periodically hibernates idle campaigns until Close.
func (r *Registry) idleSweeper() {
	defer r.wg.Done()
	ivl := r.cfg.HibernateAfter / 4
	if ivl < time.Second {
		ivl = time.Second
	}
	if ivl > time.Minute {
		ivl = time.Minute
	}
	tick := time.NewTicker(ivl)
	defer tick.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-tick.C:
			r.SweepIdle()
		}
	}
}

// observeWake records one wake latency in the bounded ring behind
// WakeStats.
func (r *Registry) observeWake(d time.Duration) {
	r.wakeMu.Lock()
	if len(r.wakeDur) < wakeWindow {
		r.wakeDur = append(r.wakeDur, d)
	} else {
		r.wakeDur[r.wakeNext%wakeWindow] = d
	}
	r.wakeNext++
	r.wakeMu.Unlock()
}

// WakeStats returns how many hibernated-campaign reactivations have run
// and the p50/p99 wake latency over the most recent wakeWindow of them
// (zero durations when none have).
func (r *Registry) WakeStats() (total int64, p50, p99 time.Duration) {
	total = r.wakes.Load()
	r.wakeMu.Lock()
	durs := append([]time.Duration(nil), r.wakeDur...)
	r.wakeMu.Unlock()
	if len(durs) == 0 {
		return total, 0, 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return total, quantile(durs, 50), quantile(durs, 99)
}

// quantile picks the nearest-rank q-th percentile from a sorted slice.
func quantile(sorted []time.Duration, q int) time.Duration {
	idx := (len(sorted)*q + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// Names returns every campaign name (live, hibernated and archived),
// sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.campaigns))
	for name := range r.campaigns {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// List describes every campaign, sorted by name.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.campaigns))
	for name := range r.campaigns {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Info, 0, len(names))
	for _, name := range names {
		c := r.campaigns[name]
		info := Info{Name: name, Archived: c.state == stateArchived,
			Hibernated: c.state == stateHibernated,
			Published:  c.published, Answers: c.answers,
			RecoveredRecords: c.recovered, Wakes: c.wakes}
		if sys := c.sys.Load(); sys != nil {
			info.Published = sys.Published()
			info.Answers = sys.AnswerCount()
		}
		out = append(out, info)
	}
	return out
}

// Archive ends a campaign for good: the serving core (when resident) is
// drained and closed (its WAL flushed and fsynced), and — for durable
// registries — an archive marker is written so later boots list the
// campaign without replaying it. A hibernated campaign archives without
// waking: its state is already durable, only the marker is written.
// Requests holding the campaign's *core.System fail once it closes.
func (r *Registry) Archive(name string) error {
	r.mu.RLock()
	closed := r.closed
	c := r.campaigns[name]
	r.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if c == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// The transition lock orders Archive against a concurrent wake or
	// hibernate of the same campaign; the close itself runs outside the
	// registry lock so other campaigns never stall on the drain.
	c.mu.Lock()
	defer c.mu.Unlock()
	sys := c.sys.Load()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if c.state == stateArchived {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrArchived, name)
	}
	// Snapshot the serving counters for List, then flip the entry so no
	// new handle can be fetched while the drain runs.
	if sys != nil {
		c.published = sys.Published()
		c.answers = sys.AnswerCount()
	}
	c.state = stateArchived
	r.mu.Unlock()
	if sys != nil {
		c.sys.Store(nil)
		r.liveCount.Add(-1)
		if err := sys.Close(); err != nil {
			// The campaign stays archived in memory but no marker is written:
			// the next boot revives it live, which is the safe direction
			// (nothing lost, the requester re-archives).
			return fmt.Errorf("registry: archive %q: %w", name, err)
		}
	}
	if dir := r.dir(name); dir != "" {
		// Not durable means not archived: as above, the next boot may revive
		// the campaign live and the requester re-archives.
		if err := wal.WriteFileAtomic(filepath.Join(dir, archivedMarker), []byte("archived\n")); err != nil {
			return fmt.Errorf("registry: archive %q: %w", name, err)
		}
	}
	return nil
}

// Counts returns the campaign census by lifecycle state.
func (r *Registry) Counts() (live, hibernated, archived int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.campaigns {
		switch c.state {
		case stateLive:
			live++
		case stateHibernated:
			hibernated++
		case stateArchived:
			archived++
		}
	}
	return live, hibernated, archived
}

// Resident reports whether the named campaign is live in memory right
// now — without waking it (unlike Get). False for hibernated, archived
// and unknown campaigns, and on a closed registry.
func (r *Registry) Resident(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return false
	}
	c := r.campaigns[name]
	return c != nil && c.sys.Load() != nil
}

// Store exposes the shared worker store (for diagnostics and tests).
func (r *Registry) Store() *store.Store { return r.store }

// Close shuts every resident campaign down gracefully (background workers
// drained, WALs flushed and fsynced) and releases the shared store.
// Campaign handles must not be used after Close.
func (r *Registry) Close() error {
	type entry struct {
		name string
		c    *campaign
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make([]entry, 0, len(r.campaigns))
	for name, c := range r.campaigns {
		entries = append(entries, entry{name, c})
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	close(r.quit)
	r.wg.Wait()
	var err error
	for _, e := range entries {
		// The transition lock waits out any in-flight wake or hibernate;
		// a wake that loses the race to closed never installs its core
		// (it re-checks under the registry lock and closes it itself).
		e.c.mu.Lock()
		sys := e.c.sys.Swap(nil)
		e.c.mu.Unlock()
		if sys == nil {
			continue
		}
		r.liveCount.Add(-1)
		if cerr := sys.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("registry: close %q: %w", e.name, cerr)
		}
	}
	if cerr := r.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
