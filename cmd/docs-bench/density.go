package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"docs/internal/core"
	"docs/internal/experiment"
	"docs/internal/model"
	"docs/internal/registry"
)

// densityReport is the machine-readable result of the density experiment,
// emitted to the -density-json artifact (BENCH_density.json in CI).
type densityReport struct {
	Campaigns             int     `json:"campaigns"`
	AnswersPerCampaign    int     `json:"answers_per_campaign"`
	MaxLive               int     `json:"max_live"`
	HeapAllLiveBytes      uint64  `json:"heap_all_live_bytes"`
	HeapAfterHibernate    uint64  `json:"heap_after_hibernate_bytes"`
	HeapCappedBytes       uint64  `json:"heap_capped_bytes"`
	AllLiveBootSeconds    float64 `json:"all_live_boot_seconds"`
	CappedBootSeconds     float64 `json:"capped_boot_seconds"`
	WakesSampled          int     `json:"wakes_sampled"`
	WakeP50Ms             float64 `json:"wake_p50_ms"`
	WakeP99Ms             float64 `json:"wake_p99_ms"`
	FingerprintsVerified  int     `json:"fingerprints_verified"`
	HeapReductionVsLive   float64 `json:"heap_reduction_vs_live"`
	SuffixRecordsPerWake  int     `json:"suffix_records_per_wake"`
	ResidentPeakDuringSim int     `json:"resident_peak_during_sim"`
}

// densityRun measures campaign density: how many campaigns one node holds
// when idle ones hibernate, what that costs a cold request, and that the
// woken state is bit-identical to the state that hibernated. Three phases:
//
//  1. Build: N small campaigns are created, driven, fingerprinted and
//     hibernated (final snapshot + fsync + release) in one durable
//     registry. Heap is sampled with everything live and again after the
//     hibernations, showing the memory actually released.
//  2. All-live baseline: the root is rebooted UNCAPPED — every campaign
//     replays at Open and stays resident, the pre-hibernation behavior.
//     Boot time and heap are the baseline the cap is judged against.
//  3. Capped serving: the root is rebooted with MaxLiveCampaigns=L. Boot
//     is O(readdir); a sample of cold campaigns is then woken by their
//     first request, timing each wake (p50/p99), verifying every woken
//     fingerprint against its phase-1 capture, and asserting the resident
//     set never exceeds L.
//
// The experiment fails (rather than reporting numbers) on any fingerprint
// mismatch or un-snapshotted wake: it is a correctness check first and a
// measurement second.
func densityRun(nCampaigns, maxLive *int, jsonOut *string) func(seed uint64, quick bool) (*experiment.Table, error) {
	return func(seed uint64, quick bool) (*experiment.Table, error) {
		n := *nCampaigns
		if n <= 0 {
			n = 10000
			if quick {
				n = 1200
			}
		}
		live := *maxLive
		if live <= 0 {
			live = 64
			if quick {
				live = 16
			}
		}
		const nTasks, answersPer = 12, 24
		sample := 200
		if quick {
			sample = 50
		}
		if sample > n {
			sample = n
		}

		root, err := os.MkdirTemp("", "docs-density-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
		// Tiny synthetic campaigns: no golden gauntlet, no reruns, no
		// background cadence — the footprint measured is the serving state
		// itself, and wake cost is a replay that runs no answer's math.
		cfg := registry.Config{
			WALDir:   root,
			Campaign: core.Config{GoldenCount: -1, RerunEvery: -1},
		}

		// Phase 1 — build and hibernate N campaigns.
		reg, err := registry.Open(cfg)
		if err != nil {
			return nil, err
		}
		fps := make([]uint64, n)
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("c%06d", i)
			if err := reg.Create(names[i]); err != nil {
				return nil, err
			}
			err := reg.Do(names[i], func(sys *core.System) error {
				if err := sys.Publish(synthTasks(nTasks, sys.Domains().Size())); err != nil {
					return err
				}
				for a := 0; a < answersPer; a++ {
					w := fmt.Sprintf("w%d", a/nTasks)
					if err := sys.Submit(w, a%nTasks, (a+i)%2); err != nil {
						return err
					}
				}
				fps[i] = fingerprintHash(sys)
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		heapAllLive := heapInUse()
		for _, name := range names {
			if err := reg.Hibernate(name); err != nil {
				return nil, err
			}
		}
		heapHibernated := heapInUse()
		if err := reg.Close(); err != nil {
			return nil, err
		}

		// Phase 2 — the uncapped baseline: boot replays everything live.
		start := time.Now()
		baseline, err := registry.Open(cfg)
		if err != nil {
			return nil, err
		}
		allLiveBoot := time.Since(start)
		if got := baseline.Stats().CampaignsLive; got != n {
			return nil, fmt.Errorf("density: uncapped boot left %d/%d campaigns live", got, n)
		}
		heapBaseline := heapInUse()
		if heapBaseline > heapAllLive {
			heapAllLive = heapBaseline // the honest all-live number is the larger sample
		}
		if err := baseline.Close(); err != nil {
			return nil, err
		}

		// Phase 3 — capped serving: lazy boot, sampled cold wakes.
		capped := cfg
		capped.MaxLiveCampaigns = live
		start = time.Now()
		reg, err = registry.Open(capped)
		if err != nil {
			return nil, err
		}
		cappedBoot := time.Since(start)
		if st := reg.Stats(); st.CampaignsLive != 0 || st.CampaignsHibernated != n {
			return nil, fmt.Errorf("density: capped boot counts %d live / %d hibernated, want 0/%d", st.CampaignsLive, st.CampaignsHibernated, n)
		}
		wakeDur := make([]time.Duration, 0, sample)
		verified, suffix, peak := 0, 0, 0
		stride := n / sample
		for i := 0; i < sample; i++ {
			idx := i * stride
			t0 := time.Now()
			err := reg.Do(names[idx], func(sys *core.System) error {
				wakeDur = append(wakeDur, time.Since(t0))
				info := sys.Recovery()
				if !info.SnapshotUsed || info.SnapshotRejected != "" {
					return fmt.Errorf("density: campaign %s woke without its snapshot (rejected: %q)", names[idx], info.SnapshotRejected)
				}
				suffix += info.Records
				if got := fingerprintHash(sys); got != fps[idx] {
					return fmt.Errorf("density: campaign %s woke with a different fingerprint than it hibernated with", names[idx])
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			verified++
			if gotLive := reg.Stats().CampaignsLive; gotLive > peak {
				peak = gotLive
			}
		}
		if peak > live {
			return nil, fmt.Errorf("density: resident set peaked at %d, cap is %d", peak, live)
		}
		heapCapped := heapInUse()
		if err := reg.Close(); err != nil {
			return nil, err
		}

		sort.Slice(wakeDur, func(i, j int) bool { return wakeDur[i] < wakeDur[j] })
		pct := func(q int) float64 {
			idx := (len(wakeDur)*q + 99) / 100
			if idx > 0 {
				idx--
			}
			return float64(wakeDur[idx]) / float64(time.Millisecond)
		}
		rep := densityReport{
			Campaigns:             n,
			AnswersPerCampaign:    answersPer,
			MaxLive:               live,
			HeapAllLiveBytes:      heapAllLive,
			HeapAfterHibernate:    heapHibernated,
			HeapCappedBytes:       heapCapped,
			AllLiveBootSeconds:    allLiveBoot.Seconds(),
			CappedBootSeconds:     cappedBoot.Seconds(),
			WakesSampled:          len(wakeDur),
			WakeP50Ms:             pct(50),
			WakeP99Ms:             pct(99),
			FingerprintsVerified:  verified,
			HeapReductionVsLive:   float64(heapAllLive) / float64(heapCapped),
			SuffixRecordsPerWake:  suffix,
			ResidentPeakDuringSim: peak,
		}

		tb := &experiment.Table{
			Title:  "Campaign density — all-live baseline vs hibernating LRU cap",
			Header: []string{"mode", "campaigns", "resident", "heap", "boot", "wake p50", "wake p99"},
		}
		tb.AddRow("all-live", fmt.Sprintf("%d", n), fmt.Sprintf("%d", n),
			fmtBytes(heapAllLive), fmt.Sprintf("%.2fs", rep.AllLiveBootSeconds), "-", "-")
		tb.AddRow(fmt.Sprintf("capped-%d", live), fmt.Sprintf("%d", n), fmt.Sprintf("≤%d", live),
			fmtBytes(heapCapped), fmt.Sprintf("%.2fs", rep.CappedBootSeconds),
			fmt.Sprintf("%.2fms", rep.WakeP50Ms), fmt.Sprintf("%.2fms", rep.WakeP99Ms))
		tb.Notes = append(tb.Notes,
			fmt.Sprintf("%d sampled cold wakes, every fingerprint verified bit-identical to its pre-hibernation state", verified),
			fmt.Sprintf("clean hibernates leave a covering snapshot: %d total suffix records replayed across all wakes", suffix),
			fmt.Sprintf("hibernating in place released %s of the all-live heap", fmtBytes(heapAllLive-minU64(heapAllLive, heapHibernated))),
			"capped boot lists namespaces without replaying any; each campaign pays its restore on first touch")
		if jsonOut != nil && *jsonOut != "" {
			blob, err := json.MarshalIndent(map[string]any{"experiment": "density", "report": rep}, "", "  ")
			if err != nil {
				return nil, err
			}
			if dir := filepath.Dir(*jsonOut); dir != "." {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return nil, err
				}
			}
			if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
				return nil, err
			}
			tb.Notes = append(tb.Notes, "machine-readable report written to "+*jsonOut)
		}
		return tb, nil
	}
}

// synthTasks builds n two-choice tasks with preset one-hot domain vectors
// over m domains, so publishing them runs no DVE.
func synthTasks(n, m int) []*model.Task {
	tasks := make([]*model.Task, n)
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[i%m] = 1
		tasks[i] = &model.Task{
			ID: i, Text: fmt.Sprintf("t%d", i), Choices: []string{"a", "b"},
			Domain: dom, Truth: model.NoTruth, TrueDomain: model.NoTruth,
		}
	}
	return tasks
}

// fingerprintHash condenses the (large) state fingerprint for comparison.
func fingerprintHash(s *core.System) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Fingerprint()))
	return h.Sum64()
}

// heapInUse samples live heap bytes after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.0fKiB", float64(b)/(1<<10))
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
