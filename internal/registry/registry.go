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
// A campaign's lifecycle position is one immutable value the registry swaps
// by compare-and-swap; no lock guards it. A transition marks the position
// moving, which keeps every other transition and every call that needs the
// campaign waiting on the mark until it lands:
//
//	from              to          on                        what happens
//	absent            live        Create, boot              core built, WAL armed and replayed
//	absent            hibernated  boot under a cap          listed, not replayed
//	absent            archived    boot finds the marker     listed, never replayed
//	hibernated        live        any call (wake)           a boot: replay, skipping the math the snapshot covers
//	live              hibernated  Hibernate, cap, idle      the writer's last call: final snapshot if answered since the newest
//	live (failed)     hibernated  ErrDurability, Close      the writer's last call: core closed as it stands, no snapshot pass
//	live, hibernated  archived    Archive                   core closed as its writer's last call, archived marker written (terminal)
//
// A call in flight needs no lease: one its writer took first is logged
// before the core closes, and one that reaches the writer after gets
// core.ErrStopped, and Do runs it again, once, on the woken core. Eviction
// — least recently used first past Config.MaxLiveCampaigns, idle past
// Config.HibernateAfter — never waits and never fails a call: it passes
// over a campaign with a call in flight, so the resident set may exceed
// MaxLiveCampaigns by those campaigns until the next call trims it. A call
// that fails its durability promise fails the campaign: the next call
// wakes it from its log. A stampede of cold calls wakes the campaign once.
// MaxLiveCampaigns also makes boot lazy: a million-campaign root boots in
// O(readdir). Hibernate/wake cycles are invisible at the bit level: the
// woken state is the serial-replay state, which the live-vs-recovered
// suite proves equal to the live fingerprint at every acknowledged
// boundary.
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

// campaignState is the lifecycle state of one registry entry.
type campaignState int

const (
	// stateAbsent is an entry listed before its first replay lands, or by
	// a Create that failed.
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
	// life is the campaign's lifecycle position, never nil.
	life atomic.Pointer[life]
	// calls counts the Do calls in flight on the campaign, which eviction
	// passes over. A call counts itself before it loads the life, and
	// eviction loads the life first, so it never takes a core woken for a
	// call in flight.
	calls atomic.Int64
	// lastTouch is the registry clock's UnixNano at the campaign's last
	// call or wake — the LRU recency stamp.
	lastTouch atomic.Int64
}

// life is one lifecycle position of a campaign, immutable once published.
type life struct {
	state campaignState
	// sys is the serving core, nil unless live.
	sys *core.System
	// moving, when not nil, marks a transition in flight: it closes when
	// the transition lands, and every other call waits for that.
	moving chan struct{}
	// last is the campaign's serving counters when it last left memory
	// (hibernate or archive); zero for campaigns not resident this boot.
	last  core.Stats
	wakes int
}

// newCampaign returns a registry entry at position l.
func newCampaign(l *life) *campaign {
	c := &campaign{}
	c.life.Store(l)
	return c
}

// move marks campaign c moving from position from and returns the mark, or
// nil when another call moved the campaign first.
func (c *campaign) move(from *life) *life {
	mark := *from
	mark.moving = make(chan struct{})
	if !c.life.CompareAndSwap(from, &mark) {
		return nil
	}
	return &mark
}

// land ends the transition mark began: next becomes the campaign's
// position and the calls waiting on the mark go on.
func (c *campaign) land(mark *life, next life) {
	next.moving = nil
	c.life.Store(&next)
	close(mark.moving)
}

// settled returns campaign c's position once no transition is in flight.
func (c *campaign) settled() *life {
	for {
		l := c.life.Load()
		if l.moving == nil {
			return l
		}
		<-l.moving
	}
}

// Registry manages many named campaigns over one shared worker store.
// All methods are safe for concurrent use.
type Registry struct {
	cfg   Config
	store *store.Store

	// mu guards the name table: campaigns, folded and the closing of
	// closed, which Create checks as it lists a name.
	mu        sync.RWMutex
	campaigns map[string]*campaign
	// folded maps each listed name, lower-cased, to the name: Create's
	// case-insensitive collision check is one lookup. ValidateName admits
	// ASCII alone, where strings.ToLower agrees with strings.EqualFold.
	folded map[string]string
	closed atomic.Bool

	// liveCount tracks resident campaigns so the LRU cap check is O(1) on
	// the hot path.
	liveCount atomic.Int64

	// wakes counts every wake this process, and wakeDur holds the latency
	// of the most recent wakeWindow of them, the n'th wake's at n %
	// wakeWindow.
	wakes   atomic.Int64
	wakeDur [wakeWindow]atomic.Int64

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
// found. Archived ones are listed; with a live-set cap the rest are listed
// cold — no replay at all, each campaign wakes on first touch, so boot lag
// is O(readdir). Without a cap every non-archived campaign is replayed
// concurrently, up to one replay per CPU, so boot lag is roughly the
// longest replay: a campaign's recovered state is a function of its own
// log plus the store log (see the package comment), whatever the boot
// order. docs/multi-campaign.md names the one residual interaction, two
// campaigns repairing lost merges for the same worker at once.
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
	var wg sync.WaitGroup
	errs := make([]error, len(names))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, name := range names {
		// Lazy boot under a cap: the campaign's state stays on disk until
		// its first call wakes it, which is what bounds boot time and RSS
		// at million-campaign density.
		l := &life{state: stateHibernated}
		switch _, err := os.Stat(filepath.Join(root, name, archivedMarker)); {
		case err == nil:
			l.state = stateArchived
		case !errors.Is(err, os.ErrNotExist):
			wg.Wait()
			return fmt.Errorf("registry: campaign %q: %w", name, err)
		case r.cfg.MaxLiveCampaigns == 0:
			l = &life{moving: make(chan struct{})} // replayed below
		}
		c := newCampaign(l)
		c.lastTouch.Store(bootStamp)
		if err := r.list(name, c); err != nil {
			wg.Wait()
			return fmt.Errorf("registry: %s: %w", root, err)
		}
		if l.moving == nil {
			continue
		}
		wg.Add(1)
		go func(i int, name string, c *campaign, mark *life) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if _, err := r.wake(name, c, mark); err != nil {
				errs[i] = fmt.Errorf("registry: recover campaign %q: %w", name, err)
			}
		}(i, name, c, l)
	}
	wg.Wait()
	// On error the caller closes the registry, which shuts down whatever
	// booted.
	return errors.Join(errs...)
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
	// The entry is listed moving, so a call that finds it before it opens
	// waits for the outcome.
	mark := &life{moving: make(chan struct{})}
	c := newCampaign(mark)
	if err := r.list(name, c); err != nil {
		return err
	}
	// The campaign's directory is created, parent entry fsynced, by the
	// WAL its Recover opens.
	if _, err := r.wake(name, c, mark); err != nil {
		// A failed Create leaves no namespace to list at the next boot. The
		// directory is this call's own — a listed or case-folded name was
		// refused above, before anything touched the disk — and it goes
		// before the name is unlisted, so a retry cannot lose its own.
		if dir := r.dir(name); dir != "" {
			_ = os.RemoveAll(dir)
		}
		r.mu.Lock()
		delete(r.campaigns, name)
		delete(r.folded, strings.ToLower(name))
		r.mu.Unlock()
		return err
	}
	r.enforceCap()
	return nil
}

// list enters campaign c in the name table. It refuses a name a listed one
// equals or differs from only by case, and every name once the registry is
// closed, so Close finds every campaign a Create listed.
func (r *Registry) list(name string, c *campaign) error {
	// Uniqueness is enforced case-insensitively: names become directory
	// names, and on a case-insensitive filesystem "Foo" and "foo" would
	// silently share one WAL namespace — two campaigns interleaving one
	// log. Rejecting the collision here keeps the layout portable.
	folded := strings.ToLower(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed.Load() {
		return ErrClosed
	}
	if existing, ok := r.folded[folded]; ok {
		return fmt.Errorf("%w: %q (collides with %q)", ErrExists, name, existing)
	}
	r.campaigns[name], r.folded[folded] = c, name
	return nil
}

// Do runs fn on the named campaign's serving core, waking the campaign
// first when it is hibernated. When a transition stops the core before a
// writer call of fn, that call applies nothing and gets core.ErrStopped,
// and Do runs fn again, once, on the woken core: fn must be safe to run
// again past its earlier writer calls. fn must not keep the core past its
// return. When fn's error is core.ErrDurability the campaign fails: its
// core is closed and the next call wakes it from its log.
func (r *Registry) Do(name string, fn func(*core.System) error) error {
	c, err := r.lookup(name)
	if err != nil {
		return err
	}
	err = r.call(name, c, fn)
	// A wake can leave the resident set over the cap: trim it once the
	// call is over, so no call waits on another campaign's eviction.
	r.enforceCap()
	return err
}

// call runs fn on campaign c's core, counted in flight (see Do).
func (r *Registry) call(name string, c *campaign, fn func(*core.System) error) error {
	c.lastTouch.Store(r.now().UnixNano())
	c.calls.Add(1)
	defer c.calls.Add(-1)
	for retry := false; ; retry = true {
		sys, err := r.core(name, c)
		if err != nil {
			return err
		}
		if err = r.failStop(name, c, sys, fn(sys)); retry || !errors.Is(err, core.ErrStopped) {
			return err
		}
	}
}

// core returns campaign c's serving core, waking the campaign when it is
// hibernated: once for a stampede of cold calls, whose first mark wins and
// whose rest wait on it.
func (r *Registry) core(name string, c *campaign) (*core.System, error) {
	for {
		l := c.settled()
		switch {
		case l.sys != nil:
			return l.sys, nil
		case l.state == stateArchived:
			return nil, fmt.Errorf("%w: %q", ErrArchived, name)
		case l.state == stateAbsent:
			return nil, fmt.Errorf("%w: %q", ErrNotFound, name) // a Create that failed
		}
		if mark := c.move(l); mark != nil {
			return r.wake(name, c, mark)
		}
	}
}

// wake lands the transition mark began with the campaign live — Create,
// boot or wake: a core over the shared store, its WAL namespace armed and
// replayed — or back where it was on an error. The campaign's name is its
// ProfileScope, so profiling merges from different campaigns never alias
// in the store's merge-once ledger. Close marks the registry closed before
// it looks at a campaign, and wake looks after marking it, so a core is
// either refused here or closed by Close.
func (r *Registry) wake(name string, c *campaign, mark *life) (*core.System, error) {
	if r.closed.Load() {
		c.land(mark, *mark)
		return nil, ErrClosed
	}
	start := r.now()
	cc := r.cfg.Campaign
	cc.Store, cc.ProfileScope = r.store, name
	sys, err := core.New(cc)
	if dir := r.dir(name); err == nil && dir != "" {
		if _, err = sys.Recover(dir); err != nil {
			sys.Close()
		}
	}
	if err != nil {
		c.land(mark, *mark)
		if mark.state == stateHibernated {
			return nil, fmt.Errorf("registry: wake %q: %w", name, err)
		}
		return nil, err
	}
	next := *mark
	next.state, next.sys = stateLive, sys
	if mark.state == stateHibernated {
		next.wakes++
		n := r.wakes.Add(1) - 1
		r.wakeDur[n%wakeWindow].Store(int64(r.now().Sub(start)))
	}
	c.lastTouch.Store(r.now().UnixNano())
	r.liveCount.Add(1)
	c.land(mark, next)
	return sys, nil
}

// failStop passes a call's error through, first failing the campaign when
// the call broke its durability promise: the core it ran on holds state
// its log may not, so it is closed — if it is still the installed one —
// and the next call wakes the campaign from disk.
func (r *Registry) failStop(name string, c *campaign, sys *core.System, err error) error {
	// A memory-only campaign has no log to fail or to wake from.
	if err == nil || !errors.Is(err, core.ErrDurability) || r.cfg.WALDir == "" {
		return err
	}
	// A core another transition moved is closing already. The log is
	// poisoned, so closing it fails too; the call's error is the one to
	// report.
	if l := c.life.Load(); l.sys == sys && l.moving == nil {
		r.stop(name, c, l, stateFailed)
	}
	return err
}

// lookup resolves a listed campaign.
func (r *Registry) lookup(name string) (*campaign, error) {
	r.mu.RLock()
	c := r.campaigns[name]
	r.mu.RUnlock()
	switch {
	case r.closed.Load():
		return nil, ErrClosed
	case c == nil:
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c, nil
}

// stop takes campaign c from position l — live, or hibernated on its way
// to the archive — toward to, and reports whether it did: false when
// another transition moved the campaign first. A live core ends as its
// writer's last call: a final snapshot pass for a hibernation, a close as
// it stands otherwise.
func (r *Registry) stop(name string, c *campaign, l *life, to campaignState) (bool, error) {
	mark := c.move(l)
	if mark == nil {
		return false, nil
	}
	next := *mark
	next.state, next.sys = to, nil
	if to == stateFailed {
		next.state = stateHibernated
	}
	var err error
	if sys := l.sys; sys != nil {
		r.liveCount.Add(-1)
		if to == stateHibernated {
			err = sys.Hibernate()
		} else {
			err = sys.Close()
		}
		// Kept for List: the counters as the core's last call left them.
		next.last = sys.Stats()
	}
	if dir := r.dir(name); err == nil && to == stateArchived && dir != "" {
		err = wal.WriteFileAtomic(filepath.Join(dir, archivedMarker), []byte("archived\n"))
	}
	c.land(mark, next)
	if err != nil {
		// A failed final snapshot still leaves the campaign hibernated: its
		// state is durable in the WAL and the next wake replays longer. A
		// failed archive leaves no marker: the next boot revives the
		// campaign live, the safe direction (the requester re-archives).
		verb := map[campaignState]string{stateHibernated: "hibernate", stateArchived: "archive", stateFailed: "close"}[to]
		return true, fmt.Errorf("registry: %s %q: %w", verb, name, err)
	}
	return true, nil
}

// Hibernate releases the named campaign's memory: as the writer's last
// call, a final state snapshot is written if an answer lies past the
// newest one, and the WAL is closed (fsynced only if a byte of it may be
// unsynced). The campaign stays listed and any later call wakes it.
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

// Archive ends a campaign for good: a resident core is closed as its
// writer's last call (its WAL flushed and fsynced), and — for durable
// registries — an archive marker is written so later boots list the
// campaign without replaying it. A hibernated campaign archives without
// waking.
func (r *Registry) Archive(name string) error { return r.exclusive(name, stateArchived) }

// exclusive runs one transition of the named campaign toward to, after the
// transition in flight on it, if any, has landed.
func (r *Registry) exclusive(name string, to campaignState) error {
	c, err := r.lookup(name)
	if err != nil {
		return err
	}
	for {
		l := c.settled()
		switch {
		case l.state == stateArchived:
			return fmt.Errorf("%w: %q", ErrArchived, name)
		case l.state == stateAbsent:
			return fmt.Errorf("%w: %q", ErrNotFound, name) // a Create that failed
		case l.sys == nil && to == stateHibernated:
			return nil
		}
		if ok, err := r.stop(name, c, l, to); ok {
			return err
		}
	}
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
// released. It never waits: a campaign with a call in flight, or in a
// transition, is passed over.
func (r *Registry) evict(pick func(*campaign) bool, done func() bool) int {
	type cand struct {
		name  string
		c     *campaign
		touch int64
	}
	var cands []cand
	r.each(func(name string, c *campaign) {
		if c.life.Load().sys != nil && pick(c) {
			cands = append(cands, cand{name, c, c.lastTouch.Load()})
		}
	})
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		return a.touch < b.touch || (a.touch == b.touch && a.name < b.name)
	})
	released := 0
	for _, cd := range cands {
		if done() {
			break
		}
		// Re-checked: a call or another evictor may have come since the
		// scan (see campaign.calls for the order).
		l := cd.c.life.Load()
		if l.sys == nil || l.moving != nil || cd.c.calls.Load() > 0 || !pick(cd.c) {
			continue
		}
		if ok, _ := r.stop(cd.name, cd.c, l, stateHibernated); ok {
			released++ // a failed final snapshot still released the core
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

// quantile picks the nearest-rank q-th percentile from a sorted slice.
func quantile(sorted []time.Duration, q int) time.Duration {
	idx := (len(sorted)*q + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}

// each calls f on every listed campaign under the name table's read lock,
// so f must not block. Eviction and the census scan in place: a copy of
// the table for each would be garbage the size of the table a call.
func (r *Registry) each(f func(name string, c *campaign)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.campaigns {
		f(name, c)
	}
}

// listed is one entry of the name table.
type listed struct {
	name string
	c    *campaign
}

// sorted returns the name table's entries, sorted by name.
func (r *Registry) sorted() []listed {
	var out []listed
	r.each(func(name string, c *campaign) { out = append(out, listed{name, c}) })
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Names returns every campaign name (live, hibernated and archived),
// sorted.
func (r *Registry) Names() []string {
	var names []string
	for _, e := range r.sorted() {
		names = append(names, e.name)
	}
	return names
}

// List describes every campaign, sorted by name.
func (r *Registry) List() []Info {
	entries := r.sorted()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		l := e.c.life.Load()
		st := l.last
		if l.sys != nil {
			st = l.sys.Stats()
		}
		out = append(out, Info{Name: e.name, Archived: l.state == stateArchived,
			Hibernated: l.state == stateHibernated, Published: st.Published,
			Answers: st.Answers, RecoveredRecords: st.Records, Wakes: l.wakes})
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

// Stats returns the campaign census and the wake record. A Stats that races
// a wake may read that wake's slot of the ring before its latency lands.
func (r *Registry) Stats() Stats {
	var st Stats
	r.each(func(_ string, c *campaign) {
		switch c.life.Load().state {
		case stateLive:
			st.CampaignsLive++
		case stateHibernated:
			st.CampaignsHibernated++
		case stateArchived:
			st.CampaignsArchived++
		}
	})
	st.WakesTotal = r.wakes.Load()
	durs := make([]time.Duration, min(st.WakesTotal, wakeWindow))
	for i := range durs {
		durs[i] = time.Duration(r.wakeDur[i].Load())
	}
	if len(durs) > 0 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		st.WakeP50, st.WakeP99 = quantile(durs, 50), quantile(durs, 99)
	}
	return st
}

// Resident reports whether the named campaign is live in memory right
// now — without waking it (unlike Do). False for hibernated, archived
// and unknown campaigns, for one in a transition, and on a closed
// registry.
func (r *Registry) Resident(name string) bool {
	c, err := r.lookup(name)
	if err != nil {
		return false
	}
	l := c.life.Load()
	return l.sys != nil && l.moving == nil
}

// Store exposes the shared worker store (for diagnostics and tests).
func (r *Registry) Store() *store.Store { return r.store }

// Close shuts every resident campaign down gracefully as its writer's last
// call (background workers drained, WALs flushed and fsynced, no snapshot
// pass) and releases the shared store. A call the writer took first
// completes; every later call fails with ErrClosed.
func (r *Registry) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(r.quit)
	r.wg.Wait()
	var err error
	for _, e := range r.sorted() {
		for l := e.c.settled(); l.sys != nil; l = e.c.settled() {
			if ok, cerr := r.stop(e.name, e.c, l, stateFailed); ok {
				if cerr != nil && err == nil {
					err = cerr
				}
				break
			}
		}
	}
	if cerr := r.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
