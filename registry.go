package docs

import (
	"time"

	"docs/internal/registry"
	"docs/internal/wal"
)

// Campaign lifecycle errors, returned by Registry methods; test with
// errors.Is.
var (
	ErrCampaignNotFound = registry.ErrNotFound
	ErrCampaignArchived = registry.ErrArchived
	ErrCampaignExists   = registry.ErrExists
)

// Registry hosts many named campaigns in one process over one shared
// worker store. Each campaign is a full System — its own task set, golden
// selection, inference state and WAL namespace — while worker profiles
// carry across campaigns through the store (the paper's returning-worker
// semantics). All methods are safe for concurrent use.
type Registry struct {
	reg *registry.Registry
}

// CampaignInfo describes one hosted campaign.
type CampaignInfo struct {
	// Name is the campaign's registry key (also its URL path segment and
	// WAL directory name).
	Name string
	// Archived campaigns are closed for good: listed, never served.
	Archived bool
	// Hibernated campaigns are durable on disk but not resident in
	// memory; the next request wakes them (Campaign blocks on the wake).
	Hibernated bool
	// Published and Answers are the campaign's serving counters; for a
	// campaign archived before this process started they are zero (its log
	// is not replayed).
	Published bool
	Answers   int64
	// RecoveredRecords is how many WAL records the campaign's most recent
	// replay (boot or wake) applied, and Wakes how many times it has been
	// reactivated from hibernation this process.
	RecoveredRecords int
	Wakes            int
}

// OpenRegistry creates a campaign registry. Config fields apply to every
// campaign it hosts: WALDir becomes the registry root (per-campaign logs
// under <WALDir>/campaigns/<name>, replayed on open) and StorePath the
// shared worker store (defaulting to <WALDir>/store.json when WALDir is
// set, so durable registries get the persistent store recovery exactness
// relies on).
func OpenRegistry(cfg Config) (*Registry, error) {
	walSync := wal.SyncNever
	if cfg.WALSyncEveryBatch {
		walSync = wal.SyncEveryBatch
	}
	reg, err := registry.Open(registry.Config{
		WALDir:         cfg.WALDir,
		StorePath:      cfg.StorePath,
		GoldenCount:    cfg.GoldenCount,
		HITSize:        cfg.HITSize,
		AnswersPerTask: cfg.AnswersPerTask,
		RerunEvery:     cfg.RerunEvery,
		AsyncRerun:     cfg.AsyncRerun,
		SnapshotEvery:  cfg.SnapshotEvery,
		WALSync:        walSync,
		LeaseTTL:       cfg.LeaseTTL,

		MaxLiveCampaigns: cfg.MaxLiveCampaigns,
		HibernateAfter:   cfg.HibernateAfter,
	})
	if err != nil {
		return nil, err
	}
	return &Registry{reg: reg}, nil
}

// Create registers a new campaign under the given name (letters, digits,
// '-' and '_', at most 64 bytes) and returns its System, ready for
// Publish. The campaign's WAL namespace is armed immediately on durable
// registries.
func (r *Registry) Create(name string) (*System, error) {
	sys, err := r.reg.Create(name)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Campaign returns the named campaign's System. The handle serves
// concurrently like any System; its lifetime is managed by the registry —
// use Archive or the registry's Close rather than System.Close.
func (r *Registry) Campaign(name string) (*System, error) {
	sys, err := r.reg.Get(name)
	if err != nil {
		return nil, err
	}
	return &System{sys: sys}, nil
}

// Campaigns lists every hosted campaign (live and archived), sorted by
// name.
func (r *Registry) Campaigns() []CampaignInfo {
	infos := r.reg.List()
	out := make([]CampaignInfo, len(infos))
	for i, in := range infos {
		out[i] = CampaignInfo{
			Name:             in.Name,
			Archived:         in.Archived,
			Hibernated:       in.Hibernated,
			Published:        in.Published,
			Answers:          in.Answers,
			RecoveredRecords: in.Recovered,
			Wakes:            in.Wakes,
		}
	}
	return out
}

// CampaignCount returns the number of serveable (non-archived) campaigns
// — resident plus hibernated — without querying each one's serving state.
func (r *Registry) CampaignCount() int { return r.reg.Live() }

// CampaignCounts returns the campaign census by lifecycle state: resident
// in memory, hibernated on disk, and archived.
func (r *Registry) CampaignCounts() (live, hibernated, archived int) {
	return r.reg.Counts()
}

// CampaignResident reports whether the named campaign is resident in
// memory right now, without waking it (unlike Campaign, which blocks on
// the wake). False for hibernated, archived and unknown campaigns.
func (r *Registry) CampaignResident(name string) bool { return r.reg.Resident(name) }

// Hibernate releases the named campaign's memory after writing a final
// state snapshot covering its whole log and fsyncing its WAL; the next
// request to the campaign wakes it (snapshot restore + WAL-suffix
// replay). A no-op on an already-hibernated campaign. Errors only on
// memory-only registries, unknown or archived campaigns, or when the
// final snapshot could not be written — in which case the campaign is
// hibernated anyway and the next wake pays a longer replay; state is
// never lost. Usually hibernation is automatic (Config.HibernateAfter,
// Config.MaxLiveCampaigns); this is the explicit handle.
func (r *Registry) Hibernate(name string) error { return r.reg.Hibernate(name) }

// WakeStats reports how many hibernated campaigns have been reactivated
// this process and the p50/p99 wake latency over the recent window.
func (r *Registry) WakeStats() (total int64, p50, p99 time.Duration) {
	return r.reg.WakeStats()
}

// OnHibernate registers fn to run after each campaign hibernation with
// the campaign's name; serving layers use it to prune per-campaign
// caches. The callback runs with the campaign's transition lock held —
// keep it quick and do not call back into the registry.
func (r *Registry) OnHibernate(fn func(name string)) { r.reg.OnHibernate(fn) }

// Archive ends a campaign for good: its serving core is drained and
// closed (WAL flushed and fsynced), and durable registries mark the
// campaign so later boots list it without replaying. Handles to the
// campaign fail after Archive.
func (r *Registry) Archive(name string) error { return r.reg.Archive(name) }

// Close shuts every live campaign down gracefully and releases the shared
// worker store. Campaign handles must not be used after Close.
func (r *Registry) Close() error { return r.reg.Close() }
