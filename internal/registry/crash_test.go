package registry

import (
	"testing"

	"docs/internal/mathx"
)

// TestMultiCampaignCrashRecoveryExact: a registry hosting three campaigns
// with overlapping workers is killed at drawn per-campaign points — each
// log cut on its own, as namespaces that flush independently leave them,
// a third of the cuts torn mid-frame — and each boot recovers every
// campaign, the shared store in its fingerprint, bit-identical to its
// serial reference: replay reads profiles, it never re-merges them.
func TestMultiCampaignCrashRecoveryExact(t *testing.T) {
	live := scenario(t, script{Seed: 42, Kills: 11, Traffic: interleaved([]string{"alpha", "beta", "gamma"}, 30, 6, 5, 9, 40, 0.15)}, plain)
	if live.stats.CampaignsLive != 3 {
		t.Fatalf("%d campaigns live, want 3", live.stats.CampaignsLive)
	}
}

// TestCrashRecoversUnmergedProfiling pins the closed crash window: a
// worker's golden answers are durable before their profiling merge reaches
// the store, and a crash in between used to lose exactly that one merge
// (the old "bounded loss" carve-out). Since the merge-once profile ledger,
// replaying the gauntlet REPAIRS the store: the profile ID is absent from
// the truncated store log, so replay re-applies the identical merge onto
// the identical prior record. At every boundary where a merge reached the
// store log, an image whose store lost it boots to the live fingerprint,
// store included — so the recovered campaign serves the worker regular
// tasks and a later campaign skips the gauntlet, as the live ones do.
func TestCrashRecoversUnmergedProfiling(t *testing.T) {
	scenario(t, script{Lost: true, Traffic: func(g *registries, r *mathx.Rand) {
		g.publish("solo", 16, 0)
		g.gauntlet("solo", "w")
		g.visit(r, "solo", "w", 2, 0, true)
		g.publish("next", 16, 3)
		g.visit(r, "next", "w", 4, 0, true)
	}}, plain)
}

// TestRegistryLiveVsRecoveredExact is the multi-campaign face of the
// live-vs-recovered contract: two campaigns interleave over the shared
// store with an overlapping worker population, so one campaign's profiling
// merges keep MOVING the store while the other seeds workers from it. The
// historical ~1e-7 drift lived exactly here — replay re-read the store at
// its final state where the live system read it at seed time. Since seeds
// are restored from each campaign's own log, a registry booted over a copy
// of the durable tree reproduces every campaign's live fingerprint, store
// included, at every acknowledged boundary: clean, and torn into the next
// operation's first frame.
func TestRegistryLiveVsRecoveredExact(t *testing.T) {
	scenario(t, script{Seed: 31, Every: true, Traffic: interleaved([]string{"alpha", "beta"}, 12, 0, 3, 6, 30, 0.2)}, plain)
}
