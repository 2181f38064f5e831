package docs

import (
	"docs/internal/core"
	"docs/internal/registry"
)

// Campaign lifecycle errors, returned by Registry methods; test with
// errors.Is.
var (
	ErrCampaignNotFound = registry.ErrNotFound
	ErrCampaignArchived = registry.ErrArchived
	ErrCampaignExists   = registry.ErrExists
	ErrCampaignName     = registry.ErrBadName
)

// Registry hosts many named campaigns in one process over one shared
// worker store. Each campaign is a full System — its own task set, golden
// selection, inference state and WAL namespace — while worker profiles
// carry across campaigns through the store (the paper's returning-worker
// semantics). All methods are safe for concurrent use.
type Registry struct {
	reg *registry.Registry
}

// CampaignInfo describes one hosted campaign: its name, whether it is
// archived or hibernated, its serving counters (zero for a campaign not
// resident this process — cold logs are not replayed), how many WAL
// records its most recent replay applied and how often it has woken.
type CampaignInfo = registry.Info

// OpenRegistry creates a campaign registry. Config fields apply to every
// campaign it hosts: WALDir becomes the registry root (per-campaign logs
// under <WALDir>/campaigns/<name>, replayed on open) and StorePath the
// shared worker store's log directory (defaulting to <WALDir>/store when
// WALDir is set, so durable registries get the persistent store recovery
// exactness relies on). A WALDir that is not a registry root — one holding
// WAL segments at its top level — is refused.
func OpenRegistry(cfg Config) (*Registry, error) {
	reg, err := registry.Open(registry.Config{
		WALDir:           cfg.WALDir,
		StorePath:        cfg.StorePath,
		MaxLiveCampaigns: cfg.MaxLiveCampaigns,
		HibernateAfter:   cfg.HibernateAfter,
		Campaign:         cfg.campaign(),
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
	if err := r.reg.Create(name); err != nil {
		return nil, err
	}
	return &System{reg: r.reg, name: name}, nil
}

// Campaign returns the named campaign's System, waking the campaign if it
// is hibernated. The handle serves concurrently like any System, each call
// on the campaign's core (see System); its lifetime is managed by the
// registry — use Archive or the registry's Close rather than System.Close.
func (r *Registry) Campaign(name string) (*System, error) {
	if err := r.reg.Do(name, func(*core.System) error { return nil }); err != nil {
		return nil, err
	}
	return &System{reg: r.reg, name: name}, nil
}

// Campaigns lists every hosted campaign (live and archived), sorted by
// name.
func (r *Registry) Campaigns() []CampaignInfo { return r.reg.List() }

// RegistryStats is the process's campaign census by lifecycle state
// (resident in memory, hibernated on disk, archived) and its wake record:
// how many hibernated campaigns have been reactivated and the p50/p99 wake
// latency over the recent window.
type RegistryStats = registry.Stats

// Stats returns the registry's campaign census and wake record.
func (r *Registry) Stats() RegistryStats { return r.reg.Stats() }

// CampaignResident reports whether the named campaign is resident in
// memory right now, without waking it (unlike Campaign, which blocks on
// the wake). False for hibernated, archived and unknown campaigns.
func (r *Registry) CampaignResident(name string) bool { return r.reg.Resident(name) }

// Hibernate releases the named campaign's memory, first writing a final
// state snapshot if an answer lies past the newest one (a campaign nobody
// answered since writes nothing); the next request to the campaign wakes
// it (a replay of its log that runs no answer's math). A no-op
// on an already-hibernated campaign. Errors only on
// memory-only registries, unknown or archived campaigns, or when the
// final snapshot could not be written — in which case the campaign is
// hibernated anyway and the next wake pays a longer replay; state is
// never lost. Usually hibernation is automatic (Config.HibernateAfter,
// Config.MaxLiveCampaigns); this is the explicit handle.
func (r *Registry) Hibernate(name string) error { return r.reg.Hibernate(name) }

// Archive ends a campaign for good: its serving core is drained and closed
// as its writer's last call (WAL flushed and fsynced), and durable
// registries mark the campaign so later boots list it without replaying.
func (r *Registry) Archive(name string) error { return r.reg.Archive(name) }

// Close shuts every live campaign down gracefully and releases the shared
// worker store. Campaign handles must not be used after Close.
func (r *Registry) Close() error { return r.reg.Close() }
