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
// Open refuses a root that is not a registry root, rather than boot an
// empty registry beside data it would silently miss. One holding a
// store.json or store.json.delta — the JSON store older versions kept — has
// no reader. One holding WAL segments at its top level is a campaign's log:
// a campaign namespace passed as a root, or the layout older versions of
// docs.New wrote, with a System's segments directly in its WALDir.
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
// Every use of a campaign's core runs through Do, which holds the
// campaign's lease for the length of the call, and every change of its
// lifecycle state runs through one transition under the campaign's write
// lock, which waits out the calls in flight and keeps new ones out:
//
//	from              to          on                        what happens
//	absent            live        Create, boot              core built, WAL armed and replayed
//	absent            hibernated  boot under a cap          listed, not replayed
//	absent            archived    boot finds the marker     listed, never replayed
//	hibernated        live        any call (wake)           a boot: replay, skipping the math the snapshot covers
//	live              hibernated  Hibernate, cap, idle      drain; final snapshot if answered since the newest
//	live (failed)     hibernated  ErrDurability, Close      core closed as it stands: no snapshot pass
//	live, hibernated  archived    Archive                   core closed, archived marker written (terminal)
//
// So no call ever runs on a closing core. Eviction — least recently used
// first past Config.MaxLiveCampaigns, idle past Config.HibernateAfter —
// never waits and never fails a call: it takes only campaigns whose write
// lock it gets at once, so the resident set may exceed MaxLiveCampaigns by
// the campaigns with a call in flight, and the next call to end trims it. A
// call that fails its durability promise fails the campaign: its core is
// dropped and the next call wakes it from its log, so a campaign only ever
// serves state its log holds. A stampede of cold calls wakes the campaign
// once. MaxLiveCampaigns also makes boot lazy: namespaces are listed, not
// replayed, so a million-campaign root boots in O(readdir). Hibernate/wake
// cycles are invisible at the bit level: the woken state is the
// serial-replay state, which the live-vs-recovered suite proves equal to
// the live fingerprint at every acknowledged boundary.
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
	ErrBadName  = errors.New("registry: illegal campaign name")
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

// wakeWindow bounds the ring of recent wake latencies behind Stats.
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
	// touched (called or created) for this long. Requires WALDir. 0 disables
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
	// stateAbsent is an entry Create or boot has listed but not yet opened.
	stateAbsent campaignState = iota
	stateLive
	stateHibernated
	stateArchived
	// stateFailed is a transition target only: close the core as it stands
	// — a core that failed its durability promise, or a registry's at
	// Close — and leave the campaign hibernated.
	stateFailed
)

// campaign is one registry entry.
type campaign struct {
	// mu is the campaign's lease. A call holds it for reading while it runs
	// (Do); a transition holds it for writing, which waits out the calls in
	// flight, keeps new ones out, and makes a stampede of cold calls wake
	// the campaign once. Lock order: c.mu may be taken before r.mu; never
	// the reverse. docs-lint enforces that order from the declaration below.
	//
	//docs:lockorder c.mu < r.mu
	mu sync.RWMutex

	// sys is the serving core, nil unless live. Atomic so eviction and
	// Resident can look at it without the lease.
	sys atomic.Pointer[core.System]

	// lastTouch is the registry clock's UnixNano at the campaign's last
	// call or wake — the LRU recency stamp.
	lastTouch atomic.Int64

	// The fields below are guarded by the registry's mu and written only by
	// transition.
	state campaignState
	// last is the campaign's serving counters when it last left memory
	// (hibernate or archive); zero for campaigns not resident this boot.
	last  core.Stats
	wakes int
}

// Registry manages many named campaigns over one shared worker store.
// All methods are safe for concurrent use.
type Registry struct {
	cfg   Config
	store *store.Store

	mu        sync.RWMutex
	campaigns map[string]*campaign
	// folded maps each listed name, lower-cased, to the name: Create's
	// case-insensitive collision check is one lookup. ValidateName admits
	// ASCII alone, where strings.ToLower agrees with strings.EqualFold.
	folded map[string]string
	closed bool

	// liveCount tracks resident campaigns (sys != nil) so the LRU cap
	// check is O(1) on the hot path.
	liveCount atomic.Int64

	// wakeMu guards the ring of recent wake latencies; wakeNext counts
	// every wake this process.
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
		return fmt.Errorf("%w: empty", ErrBadName)
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("%w: longer than %d bytes", ErrBadName, MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0:
		default:
			return fmt.Errorf("%w %q: byte %d must be [A-Za-z0-9_-] (no leading - or _)", ErrBadName, name, i)
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
		// One read of the root refuses a directory that is not a registry
		// root (see the package comment).
		entries, err := os.ReadDir(cfg.WALDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("registry: %w", err)
		}
		for _, e := range entries {
			switch name := e.Name(); {
			case name == "store.json", name == "store.json.delta":
				return nil, fmt.Errorf("registry: %s holds %s, a worker store in the retired JSON format, which this version cannot read", cfg.WALDir, name)
			case strings.HasSuffix(name, ".wal"):
				return nil, fmt.Errorf("registry: %s is not a registry root: it holds the WAL segment %s at its top level, where a registry keeps none (a campaign logs under <root>/%s/<name>)", cfg.WALDir, name, campaignsDir)
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
		campaigns: make(map[string]*campaign), folded: make(map[string]string), quit: make(chan struct{})}
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
		errMu    sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for _, name := range names {
		to := stateLive
		switch _, err := os.Stat(filepath.Join(root, name, archivedMarker)); {
		case err == nil:
			to = stateArchived
		case !errors.Is(err, os.ErrNotExist):
			wg.Wait()
			return fmt.Errorf("registry: campaign %q: %w", name, err)
		case r.cfg.MaxLiveCampaigns > 0:
			// Lazy boot: the campaign's state stays on disk until its first
			// call wakes it, which is what bounds boot time and RSS at
			// million-campaign density.
			to = stateHibernated
		}
		c := &campaign{}
		c.lastTouch.Store(bootStamp)
		r.mu.Lock()
		r.campaigns[name], r.folded[strings.ToLower(name)] = c, name
		r.mu.Unlock()
		if to != stateLive {
			c.mu.Lock()
			r.transition(name, c, to) // lists it: cannot fail
			c.mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(name string, c *campaign) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c.mu.Lock()
			err := r.transition(name, c, stateLive)
			c.mu.Unlock()
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("registry: recover campaign %q: %w", name, err)
				}
				errMu.Unlock()
			}
		}(name, c)
	}
	wg.Wait()
	// On error the caller closes the registry, which shuts down whatever
	// booted.
	return firstErr
}

// openCampaign builds one campaign's core.System over the shared store and,
// when the registry is durable, arms (and replays) its WAL namespace. The
// campaign name becomes its ProfileScope, so profiling merges from
// different campaigns never alias in the shared store's merge-once ledger.
func (r *Registry) openCampaign(name, dir string) (*core.System, error) {
	cc := r.cfg.Campaign
	cc.Store = r.store
	cc.ProfileScope = name
	sys, err := core.New(cc)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if _, err := sys.Recover(dir); err != nil {
			sys.Close()
			return nil, err
		}
	}
	return sys, nil
}

// dir returns the campaign's WAL namespace ("" for memory-only registries).
func (r *Registry) dir(name string) string {
	if r.cfg.WALDir == "" {
		return ""
	}
	return filepath.Join(r.cfg.WALDir, campaignsDir, name)
}

// Create registers a new live campaign. The name must validate, and must
// not collide with any live, hibernated or archived campaign.
func (r *Registry) Create(name string) error {
	if err := ValidateName(name); err != nil {
		return err
	}
	// The entry is listed locked, so a call that finds it before it opens
	// waits for the outcome.
	c := &campaign{}
	c.mu.Lock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.mu.Unlock()
		return ErrClosed
	}
	// Uniqueness is enforced case-insensitively: names become directory
	// names, and on a case-insensitive filesystem "Foo" and "foo" would
	// silently share one WAL namespace — two campaigns interleaving one
	// log. Rejecting the collision here keeps the layout portable.
	folded := strings.ToLower(name)
	if existing, ok := r.folded[folded]; ok {
		r.mu.Unlock()
		c.mu.Unlock()
		return fmt.Errorf("%w: %q (collides with %q)", ErrExists, name, existing)
	}
	r.campaigns[name], r.folded[folded] = c, name
	r.mu.Unlock()
	// The campaign's directory is created, parent entry fsynced, by the
	// WAL its Recover opens.
	err := r.transition(name, c, stateLive)
	if err != nil {
		// A failed Create leaves no namespace to list at the next boot. The
		// directory is this call's own — a listed or case-folded name was
		// refused above, before anything touched the disk — and it goes
		// before the name is unlisted, so a retry cannot lose its own.
		if dir := r.dir(name); dir != "" {
			_ = os.RemoveAll(dir)
		}
		r.mu.Lock()
		delete(r.campaigns, name)
		delete(r.folded, folded)
		r.mu.Unlock()
	}
	c.mu.Unlock()
	if err == nil {
		r.enforceCap()
	}
	return err
}

// Do runs fn on the named campaign's serving core, waking the campaign
// first when it is hibernated, and holds the campaign's lease until fn
// returns: no hibernation, eviction, Archive or Close closes the core
// under fn. fn must not keep the core past its return. When fn's error is
// core.ErrDurability the campaign fails: its core is dropped and the next
// call wakes it from its log. The fast path — a resident campaign — is one
// map read and one uncontended read lock.
func (r *Registry) Do(name string, fn func(*core.System) error) error {
	c, err := r.lookup(name)
	if err != nil {
		return err
	}
	c.lastTouch.Store(r.now().UnixNano())
	sys, err := r.leased(name, c, fn)
	err = r.failStop(name, c, sys, err)
	// A wake — this call's, or an earlier one whose eviction skipped
	// campaigns with calls in flight — can leave the resident set over the
	// cap: trim it holding no lease, so no call waits on another campaign's
	// eviction.
	r.enforceCap()
	return err
}

// leased runs fn under campaign c's lease and returns the core it ran on.
// The lease is released by defer, so a panicking fn cannot leave the
// campaign locked against every later transition.
func (r *Registry) leased(name string, c *campaign, fn func(*core.System) error) (*core.System, error) {
	c.mu.RLock()
	if sys := c.sys.Load(); sys != nil {
		defer c.mu.RUnlock()
		return sys, fn(sys)
	}
	c.mu.RUnlock()
	// Cold: wake under the write lock and run this call there too, so no
	// eviction can come between the wake and the call it was for.
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := r.transition(name, c, stateLive); err != nil {
		return nil, err
	}
	sys := c.sys.Load()
	return sys, fn(sys)
}

// failStop passes a call's error through, first failing the campaign when
// the call broke its durability promise: the core it ran on holds state
// its log may not, so it is dropped — if it is still the installed one —
// and the next call wakes the campaign from disk.
func (r *Registry) failStop(name string, c *campaign, sys *core.System, err error) error {
	// A memory-only campaign has no log to fail or to wake from.
	if err == nil || !errors.Is(err, core.ErrDurability) || r.cfg.WALDir == "" {
		return err
	}
	c.mu.Lock()
	if c.sys.Load() == sys {
		// The log is poisoned, so closing it fails too; the call's error is
		// the one to report.
		_ = r.transition(name, c, stateFailed)
	}
	c.mu.Unlock()
	return err
}

// lookup resolves a listed campaign.
func (r *Registry) lookup(name string) (*campaign, error) {
	r.mu.RLock()
	closed, c := r.closed, r.campaigns[name]
	r.mu.RUnlock()
	switch {
	case closed:
		return nil, ErrClosed
	case c == nil:
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c, nil
}

// transition moves campaign c toward state to; see the package comment's
// table. It is the only writer of c.state and c.sys, and its caller holds
// c.mu for writing, so no call is in flight on a core it installs or
// removes. A transition to where the campaign already is is a no-op.
func (r *Registry) transition(name string, c *campaign, to campaignState) error {
	sys := c.sys.Load()
	r.mu.RLock()
	closed, from, listed := r.closed, c.state, r.campaigns[name] == c
	r.mu.RUnlock()
	switch {
	case to == stateFailed:
		if sys == nil {
			return nil
		}
	case !listed:
		return fmt.Errorf("%w: %q", ErrNotFound, name) // a Create that failed
	case closed:
		return ErrClosed
	case from == stateArchived:
		return fmt.Errorf("%w: %q", ErrArchived, name)
	case from == stateAbsent && to != stateLive:
		// Boot lists a campaign it does not replay: archived, or cold under
		// a cap.
		r.mu.Lock()
		c.state = to
		r.mu.Unlock()
		return nil
	case to == stateHibernated && sys == nil, to == stateLive && sys != nil:
		return nil
	case to == stateLive:
		// Create, boot or wake: one replay of the campaign's log.
		start := r.now()
		sys, err := r.openCampaign(name, r.dir(name))
		if err != nil {
			if from == stateHibernated {
				return fmt.Errorf("registry: wake %q: %w", name, err)
			}
			return err
		}
		elapsed := r.now().Sub(start)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			sys.Close()
			return ErrClosed
		}
		c.state = stateLive
		if from == stateHibernated {
			c.wakes++
		}
		r.mu.Unlock()
		c.sys.Store(sys)
		c.lastTouch.Store(r.now().UnixNano())
		r.liveCount.Add(1)
		if from == stateHibernated {
			r.observeWake(elapsed)
		}
		return nil
	}
	// Leaving memory (or archiving a hibernated campaign): keep the
	// serving counters for List and flip the state, then release the core
	// outside every registry lock — only calls to THIS campaign wait.
	last := c.last
	if sys != nil {
		last = sys.Stats()
	}
	r.mu.Lock()
	c.state, c.last = to, last
	if to == stateFailed {
		c.state = stateHibernated
	}
	r.mu.Unlock()
	var err error
	if sys != nil {
		c.sys.Store(nil)
		r.liveCount.Add(-1)
		if to == stateHibernated {
			err = sys.Hibernate()
		} else {
			err = sys.Close()
		}
	}
	if dir := r.dir(name); err == nil && to == stateArchived && dir != "" {
		err = wal.WriteFileAtomic(filepath.Join(dir, archivedMarker), []byte("archived\n"))
	}
	if err != nil {
		// A failed final snapshot still leaves the campaign hibernated: its
		// state is durable in the WAL and the next wake replays longer. A
		// failed archive leaves no marker: the next boot revives the
		// campaign live, the safe direction (the requester re-archives).
		verb := map[campaignState]string{stateHibernated: "hibernate", stateArchived: "archive", stateFailed: "close"}[to]
		return fmt.Errorf("registry: %s %q: %w", verb, name, err)
	}
	return nil
}

// Hibernate releases the named campaign's memory once the calls in flight
// on it return: the core is drained, a final state snapshot is written by
// one last snapshot pass if an answer lies past the newest one, the WAL is
// closed (fsynced only if a byte of it may be unsynced), and the core is
// dropped. A campaign with no answer since its snapshot — or none at all —
// writes nothing. The campaign stays listed and any later call wakes it.
// Hibernating an already-hibernated campaign is a no-op. An error means
// the final snapshot could not be written — the campaign is hibernated
// regardless (its state is durable in the WAL) and the next wake pays a
// longer replay; nothing is lost.
func (r *Registry) Hibernate(name string) error {
	if r.cfg.WALDir == "" {
		return fmt.Errorf("registry: hibernate %q: memory-only registries cannot hibernate", name)
	}
	return r.exclusive(name, stateHibernated)
}

// Archive ends a campaign for good once the calls in flight on it return:
// the serving core (when resident) is drained and closed (its WAL flushed
// and fsynced), and — for durable registries — an archive marker is
// written so later boots list the campaign without replaying it. A
// hibernated campaign archives without waking: its state is already
// durable, only the marker is written.
func (r *Registry) Archive(name string) error { return r.exclusive(name, stateArchived) }

// exclusive runs one transition of the named campaign under its write
// lock, waiting out the calls in flight.
func (r *Registry) exclusive(name string, to campaignState) error {
	c, err := r.lookup(name)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.transition(name, c, to)
}

// enforceCap hibernates least-recently-touched live campaigns until the
// resident set fits Config.MaxLiveCampaigns again, or until every campaign
// left over it has a call in flight.
func (r *Registry) enforceCap() {
	max := r.cfg.MaxLiveCampaigns
	if max <= 0 || int(r.liveCount.Load()) <= max {
		return
	}
	r.evict(func(*campaign) bool { return true },
		func() bool { return int(r.liveCount.Load()) <= max })
}

// SweepIdle hibernates every live campaign untouched for at least
// Config.HibernateAfter and without a call in flight, and returns how many
// it released. The background sweeper calls this periodically; tests with
// an injected Clock call it directly for deterministic idle transitions.
func (r *Registry) SweepIdle() int {
	after := r.cfg.HibernateAfter
	if after <= 0 {
		return 0
	}
	cutoff := r.now().Add(-after).UnixNano()
	return r.evict(func(c *campaign) bool { return c.lastTouch.Load() <= cutoff },
		func() bool { return false })
}

// evict hibernates the live campaigns pick admits, least recently touched
// first (ties broken by name), until done holds, and returns how many it
// released. It never waits: a campaign whose write lock it cannot take at
// once has a call in flight and is skipped.
func (r *Registry) evict(pick func(*campaign) bool, done func() bool) int {
	type cand struct {
		name  string
		c     *campaign
		touch int64
	}
	var cands []cand
	r.mu.RLock()
	for name, c := range r.campaigns {
		if c.sys.Load() != nil && pick(c) {
			cands = append(cands, cand{name, c, c.lastTouch.Load()})
		}
	}
	r.mu.RUnlock()
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		return a.touch < b.touch || (a.touch == b.touch && a.name < b.name)
	})
	released := 0
	for _, cd := range cands {
		if done() {
			break
		}
		if !cd.c.mu.TryLock() {
			continue
		}
		// Re-checked under the lock: a call may have touched the campaign,
		// or another evictor released it, since the scan.
		if cd.c.sys.Load() != nil && pick(cd.c) {
			r.transition(cd.name, cd.c, stateHibernated)
			if cd.c.sys.Load() == nil {
				released++ // a failed final snapshot still released the core
			}
		}
		cd.c.mu.Unlock()
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

// observeWake counts one wake and records its latency in the bounded ring
// behind Stats.
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
		st := c.last
		if sys := c.sys.Load(); sys != nil {
			st = sys.Stats()
		}
		out = append(out, Info{Name: name, Archived: c.state == stateArchived,
			Hibernated: c.state == stateHibernated, Published: st.Published,
			Answers: st.Answers, RecoveredRecords: st.Records, Wakes: c.wakes})
	}
	return out
}

// Stats is the process's campaign census by lifecycle state and its wake
// record. The JSON tags are the registry-wide GET /c/{campaign}/stats keys.
type Stats struct {
	CampaignsLive       int `json:"campaigns_live"`
	CampaignsHibernated int `json:"campaigns_hibernated"`
	CampaignsArchived   int `json:"campaigns_archived"`
	// WakesTotal counts the hibernated-campaign reactivations this process;
	// WakeP50 and WakeP99 are the nearest-rank wake latencies over the most
	// recent wakeWindow of them (zero before the first).
	WakesTotal int64         `json:"wakes_total"`
	WakeP50    time.Duration `json:"-"`
	WakeP99    time.Duration `json:"-"`
}

// Stats returns the campaign census and the wake record.
func (r *Registry) Stats() Stats {
	var st Stats
	r.mu.RLock()
	for _, c := range r.campaigns {
		switch c.state {
		case stateLive:
			st.CampaignsLive++
		case stateHibernated:
			st.CampaignsHibernated++
		case stateArchived:
			st.CampaignsArchived++
		}
	}
	r.mu.RUnlock()
	r.wakeMu.Lock()
	st.WakesTotal = int64(r.wakeNext)
	durs := append([]time.Duration(nil), r.wakeDur...)
	r.wakeMu.Unlock()
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		st.WakeP50, st.WakeP99 = quantile(durs, 50), quantile(durs, 99)
	}
	return st
}

// Resident reports whether the named campaign is live in memory right
// now — without waking it (unlike Do). False for hibernated, archived
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

// Close shuts every resident campaign down gracefully once the calls in
// flight on it return (background workers drained, WALs flushed and
// fsynced, no snapshot pass) and releases the shared store. Every call
// after Close fails with ErrClosed.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := make(map[string]*campaign, len(r.campaigns))
	names := make([]string, 0, len(r.campaigns))
	for name, c := range r.campaigns {
		entries[name] = c
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	close(r.quit)
	r.wg.Wait()
	var err error
	for _, name := range names {
		c := entries[name]
		c.mu.Lock()
		if cerr := r.transition(name, c, stateFailed); cerr != nil && err == nil {
			err = cerr
		}
		c.mu.Unlock()
	}
	if cerr := r.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
