package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"docs/internal/core"
	"docs/internal/experiment"
	"docs/internal/model"
)

// recoverRow is one machine-readable measurement of the recover
// experiment, emitted to the -json artifact (BENCH_recover.json in CI).
type recoverRow struct {
	Answers         int     `json:"answers"`
	Records         int     `json:"records"`
	ReplaySeconds   float64 `json:"replay_seconds"`
	SnapshotSeconds float64 `json:"snapshot_seconds"`
	Speedup         float64 `json:"speedup"`
	SuffixRecords   int     `json:"suffix_records"`
}

// recoverBoot measures what the state-snapshot subsystem buys at restart:
// the same logged campaign is booted twice, once by full WAL replay and
// once from a snapshot covering the whole log, and the two recovered
// states are asserted bit-identical (Fingerprint) before the timings are
// reported — the experiment is a correctness check as much as a benchmark.
//
// The campaign is synthetic (preset domain vectors, golden profiling and
// periodic reruns disabled) so the replay cost measured is the incremental
// ingest path itself; with reruns enabled the full replay would also
// re-pay every EM batch run and the gap would only widen. Sizes come from
// -recover-answers (default 10000,100000; -quick uses 2000 — pass e.g.
// -recover-answers 1000000 for the million-answer point).
func recoverBoot(sizes string, jsonOut *string) func(seed uint64, quick bool) (*experiment.Table, error) {
	return func(seed uint64, quick bool) (*experiment.Table, error) {
		ns, err := parseSizes(sizes, quick)
		if err != nil {
			return nil, err
		}
		tb := &experiment.Table{
			Title:  "Recovery — full WAL replay vs state-snapshot boot",
			Header: []string{"answers", "records", "replay boot", "snapshot boot", "speedup", "suffix"},
		}
		var rows []recoverRow
		for _, n := range ns {
			row, err := recoverOne(n)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
			tb.AddRow(fmt.Sprintf("%d", row.Answers), fmt.Sprintf("%d", row.Records),
				fmt.Sprintf("%.3fs", row.ReplaySeconds), fmt.Sprintf("%.3fs", row.SnapshotSeconds),
				fmt.Sprintf("%.1fx", row.Speedup), fmt.Sprintf("%d", row.SuffixRecords))
		}
		tb.Notes = append(tb.Notes,
			"both boots recover the identical campaign; fingerprints asserted bit-identical before timing is reported",
			"replay boot re-applies every record through the serial submit path; snapshot boot restores state and replays only the suffix",
			"golden profiling and periodic reruns disabled: the replay column is the pure ingest cost (reruns would widen the gap)")
		if jsonOut != nil && *jsonOut != "" {
			blob, err := json.MarshalIndent(map[string]any{"experiment": "recover", "rows": rows}, "", "  ")
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
			tb.Notes = append(tb.Notes, "machine-readable rows written to "+*jsonOut)
		}
		return tb, nil
	}
}

func parseSizes(sizes string, quick bool) ([]int, error) {
	if sizes == "" {
		if quick {
			return []int{2000}, nil
		}
		return []int{10000, 100000}, nil
	}
	var ns []int
	for _, f := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("recover: bad -recover-answers entry %q", f)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

// recoverOne generates one logged campaign of n answers and measures the
// two boot paths.
func recoverOne(n int) (*recoverRow, error) {
	dir, err := os.MkdirTemp("", "docs-recover-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := core.Config{
		GoldenCount:   -1, // no golden gauntlet: every worker submits directly
		RerunEvery:    -1, // measure the pure ingest replay cost
		SnapshotEvery: -1, // the snapshot is written deterministically below
	}
	// Workers cycle every nTasks submissions, so the (i/nTasks, i%nTasks)
	// pairing below never repeats a (worker, task) pair.
	const nTasks = 200

	gen, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := gen.Recover(dir); err != nil {
		return nil, err
	}
	if err := gen.Publish(synthTasks(nTasks, gen.Domains().Size())); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		w := fmt.Sprintf("w%d", i/nTasks)
		if err := gen.Submit(w, i%nTasks, i%2); err != nil {
			return nil, err
		}
	}
	if err := gen.Close(); err != nil {
		return nil, err
	}

	// Boot 1: full replay — and from the recovered (quiescent, serial)
	// state, write the snapshot the second boot will restore.
	start := time.Now()
	s1, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	info1, err := s1.Recover(dir)
	if err != nil {
		return nil, err
	}
	replayBoot := time.Since(start)
	if info1.SnapshotUsed {
		return nil, fmt.Errorf("recover: replay boot unexpectedly found a snapshot")
	}
	if err := s1.WriteSnapshot(); err != nil {
		return nil, err
	}
	fp1 := fingerprintHash(s1)
	if err := s1.Close(); err != nil {
		return nil, err
	}

	// Boot 2: snapshot-assisted.
	start = time.Now()
	s2, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	info2, err := s2.Recover(dir)
	if err != nil {
		return nil, err
	}
	snapBoot := time.Since(start)
	if !info2.SnapshotUsed {
		return nil, fmt.Errorf("recover: snapshot boot fell back to replay: %s", info2.SnapshotRejected)
	}
	if fp2 := fingerprintHash(s2); fp2 != fp1 {
		return nil, fmt.Errorf("recover: snapshot boot state differs from replay boot (fingerprint %x vs %x)", fp2, fp1)
	}
	if err := s2.Close(); err != nil {
		return nil, err
	}
	return &recoverRow{
		Answers:         n,
		Records:         info1.Records,
		ReplaySeconds:   replayBoot.Seconds(),
		SnapshotSeconds: snapBoot.Seconds(),
		Speedup:         replayBoot.Seconds() / snapBoot.Seconds(),
		SuffixRecords:   info2.Records,
	}, nil
}

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
