package registry

import (
	"fmt"
	"path/filepath"
	"testing"

	"docs/internal/snapshot"
	"docs/internal/wal"
)

// snapshotFiles counts the campaigns under root that hold a snapshot file —
// each one is a snapshot pass that ran to completion.
func snapshotFiles(t *testing.T, root string) int {
	t.Helper()
	found, err := filepath.Glob(filepath.Join(root, campaignsDir, "*", snapshot.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return len(found)
}

// TestEvictionIOLedger holds the campaign lifecycle to its I/O bill, counted
// in fsyncs (wal.Fsyncs: every file and directory sync a campaign issues)
// and snapshot files. An eviction pays for the bytes that changed and no
// more: nothing for a suffix without answers, one snapshot (file + directory
// entry) for one with them, plus the log's own fsync only where the log
// cannot show it is already synced — after a write the policy left
// unsynced, or once over a segment an earlier life left behind.
func TestEvictionIOLedger(t *testing.T) {
	for _, policy := range []struct {
		name string
		sync wal.SyncPolicy
		// fsyncs a logged record costs when it is acknowledged, and the log
		// still owes when it is next synced
		perRecord, owed int64
	}{
		{"SyncEveryBatch", wal.SyncEveryBatch, 1, 0},
		{"SyncNever", wal.SyncNever, 0, 1},
	} {
		t.Run(policy.name, func(t *testing.T) {
			root := t.TempDir()
			cfg := crashConfig(root)
			cfg.Campaign.WALSync = policy.sync
			reg := openRegistry(t, cfg)
			touch := func(name string) func() error {
				return func() error { _, err := get(reg, name); return err }
			}
			hibernate := func(name string) func() error {
				return func() error { return reg.Hibernate(name) }
			}
			publish := func(name string) func() error {
				return func() error {
					sys, err := get(reg, name)
					if err != nil {
						return err
					}
					return sys.Publish(synthTasks(sys.Domains().Size(), 12, 1))
				}
			}

			steps := []struct {
				what      string
				fsyncs    int64
				snapshots int // snapshot files under the root afterwards
				op        func() error
			}{
				// campaigns/ for the new name, campaigns/idle/ for its segment
				{"create", 2, 0, func() error { _, err := create(reg, "idle"); return err }},
				{"first publish", policy.perRecord, 0, publish("idle")},
				{"hibernate publish-only", policy.owed, 0, hibernate("idle")},
				{"wake publish-only", 0, 0, touch("idle")},
				// A reopened log cannot know what the life before it synced.
				{"hibernate after a read-only wake", 1, 0, hibernate("idle")},

				{"create a second campaign", 2, 0, func() error { _, err := create(reg, "busy"); return err }},
				{"publish it", policy.perRecord, 0, publish("busy")},
				// four campaign records, and the profiling merge's record in
				// the store log, which fsyncs every record whatever the
				// campaign's policy
				{"profile a worker there", 4*policy.perRecord + 1, 0, func() error {
					sys, err := get(reg, "busy")
					if err == nil {
						profile(t, sys, "w0")
					}
					return err
				}},
				// file + directory entry of the snapshot; the log is synced first
				{"hibernate with answers past the snapshot", policy.owed + 2, 1, hibernate("busy")},
				{"wake it", 0, 1, touch("busy")},
				{"hibernate after a read-only wake", 1, 1, hibernate("busy")},

				// w0 is known to the store now, so her first request of the idle
				// campaign logs a KindSeed — and nothing else.
				{"request that logs only a seed", policy.perRecord, 1, func() error {
					sys, err := get(reg, "idle")
					if err == nil {
						_, err = sys.Request("w0", crashKnobs.hit)
					}
					return err
				}},
				// Under SyncEveryBatch the seed's own fsync also covered what the
				// reopened segment held.
				{"hibernate publish-plus-seed", policy.owed, 1, hibernate("idle")},
			}
			for _, st := range steps {
				before := wal.Fsyncs()
				if err := st.op(); err != nil {
					t.Fatalf("%s: %v", st.what, err)
				}
				if got := wal.Fsyncs() - before; got != st.fsyncs {
					t.Errorf("%s: %d fsyncs, want %d", st.what, got, st.fsyncs)
				}
				if got := snapshotFiles(t, root); got != st.snapshots {
					t.Errorf("%s: %d snapshot files under the root, want %d", st.what, got, st.snapshots)
				}
			}
			// The seed-only life replays as publication + seed, no snapshot.
			sys := coreOf(t, reg, "idle")
			if info := sys.Recovery(); info.SnapshotUsed || info.Records != 2 {
				t.Errorf("wake of a publish-plus-seed life: snapshot used %v, %d records replayed, want none and 2", info.SnapshotUsed, info.Records)
			}
		})
	}

	// churn's set-up in miniature: 80 publishes under a resident cap of 16
	// evict 64 campaigns that were only ever published.
	t.Run("80 publishes at cap 16", func(t *testing.T) {
		root := t.TempDir()
		cfg := crashConfig(root)
		cfg.Campaign.WALSync = wal.SyncEveryBatch
		cfg.MaxLiveCampaigns = 16
		reg := openRegistry(t, cfg)
		before := wal.Fsyncs()
		for i := 0; i < 80; i++ {
			published(t, reg, fmt.Sprintf("c%03d", i), 8, i)
		}
		if st := reg.Stats(); st.CampaignsLive != 16 || st.CampaignsHibernated != 64 {
			t.Fatalf("%d live / %d hibernated, want 16/64", st.CampaignsLive, st.CampaignsHibernated)
		}
		if got := snapshotFiles(t, root); got != 0 {
			t.Errorf("%d snapshot passes ran during set-up, want 0", got)
		}
		if got := wal.Fsyncs() - before; got != 80*3 {
			t.Errorf("%d fsyncs for 80 publishes and 64 evictions, want %d (3 a publish, 0 an eviction)", got, 80*3)
		}
	})
}
