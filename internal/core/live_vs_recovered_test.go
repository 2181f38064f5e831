package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/wal"
)

// This file is the live-vs-recovered acceptance harness for the durability
// contract's strongest form: a recovered system must be bit-identical to
// the LIVE system as it stood at the moment the acknowledged prefix ended
// — not merely to a deterministic replay of that prefix. The two are the
// same thing only if the serving path derives nothing from state that
// recovery sees at a different time; the ~1e-7 /result drift this suite
// was built to catch came from exactly such a gap (worker-profile seeds
// re-READ from the evolving long-run store on replay instead of being
// restored from the log — see docs/persistence.md).
//
// The harness runs a serial contested campaign over a real WAL and a
// persistent shared store, captures a byte-level image of the durable
// files plus the live Fingerprint after EVERY acknowledged operation, and
// then recovers every image — clean boundaries, synthesized torn final
// frames, and a lost store record — comparing fingerprints at float64-bit
// granularity. On failure it writes the bit-level diff report where
// LIVE_DIFF_REPORT points (CI uploads it as an artifact).

// liveCapture is one acknowledged-operation boundary: the live
// fingerprint and a full copy of the durable files at that instant.
type liveCapture struct {
	fp  string // live Fingerprint right after the op was acknowledged
	dir string // copy of the WAL dir (wal/) and the store's log (store/)
}

// captureImage copies the campaign's durable files — its WAL segments and
// the shared store's log — into a fresh image directory.
func captureImage(t *testing.T, walDir, storeDir, dst string) {
	t.Helper()
	crashtest.CopyTree(t, walDir, filepath.Join(dst, "wal"))
	crashtest.CopyTree(t, storeDir, filepath.Join(dst, "store"))
}

// recoverImage recovers a captured image with the same configuration the
// live system ran and returns the recovered fingerprint; the system and
// its store are closed again, so a second boot of the image reads what the
// first left behind.
func recoverImage(t *testing.T, img string, cfg Config, m int) string {
	t.Helper()
	st, err := store.Open(filepath.Join(img, "store"), m)
	if err != nil {
		t.Fatalf("boot %s: store: %v", img, err)
	}
	cfg.Store = st
	s := newSystem(t, cfg)
	if _, err := s.Recover(filepath.Join(img, "wal")); err != nil {
		t.Fatalf("boot %s: %v", img, err)
	}
	fp := s.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestLiveVsRecoveredExact is the tentpole acceptance test: every
// acknowledged-operation boundary of a contested two-campaign run over a
// shared persistent store is recovered and compared bit-for-bit against
// the fingerprint the LIVE system had at that exact moment — clean
// boundaries, torn final frames, and a lost store record. The second
// campaign starts workers from the store (the seed path whose re-reading
// caused the historical ~1e-7 drift), so the suite fails loudly if seeds
// ever go back to being re-derived instead of restored.
func TestLiveVsRecoveredExact(t *testing.T) {
	root := t.TempDir()
	storePath := filepath.Join(root, "store")

	probe := newSystem(t, Config{GoldenCount: -1})
	m := probe.Domains().Size()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(storePath, m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	baseCfg := func(scope string) Config {
		return Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
			WALSegmentBytes: 1 << 10, ProfileScope: scope}
	}

	var captures []liveCapture
	imageRoot := filepath.Join(root, "images")
	runCampaign := func(scope string, nTasks, taskBase int) (cfg Config, walDir string, first int) {
		cfg = baseCfg(scope)
		cfg.Store = st
		walDir = filepath.Join(root, "wal-"+scope)
		first = len(captures)
		s := newSystem(t, cfg)
		if _, err := s.Recover(walDir); err != nil {
			t.Fatal(err)
		}
		capture := func() {
			dir := filepath.Join(imageRoot, fmt.Sprintf("%03d", len(captures)))
			captureImage(t, walDir, storePath, dir)
			captures = append(captures, liveCapture{fp: s.Fingerprint(), dir: dir})
		}
		tasks := concTasks(s.m, nTasks)
		for _, tk := range tasks {
			tk.ID += taskBase
		}
		if err := s.Publish(tasks); err != nil {
			t.Fatal(err)
		}
		capture()
		goldenSet := map[int]bool{}
		for _, id := range s.GoldenTasks() {
			goldenSet[id] = true
		}
		r := mathx.NewRand(uint64(1000 + taskBase))
		for i := 0; ; i++ {
			w := fmt.Sprintf("w%d", i%7)
			got, err := s.Request(w, 4)
			if err != nil {
				t.Fatal(err)
			}
			capture() // Request can log a profile seed — its own boundary
			if len(got) == 0 {
				break
			}
			for _, tk := range got {
				c := tk.Truth
				if c == model.NoTruth {
					c = 0
				} else if !goldenSet[tk.ID] && r.Float64() >= 0.8 {
					c = 1 - c
				}
				if err := s.Submit(w, tk.ID, c); err != nil {
					t.Fatal(err)
				}
				capture()
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return cfg, walDir, first
	}

	type campaignRun struct {
		cfg    Config
		walDir string
		first  int // index of its first capture
		last   int // index one past its last capture
	}
	var runs []campaignRun
	cfg1, wal1, first1 := runCampaign("camp1", 16, 0)
	runs = append(runs, campaignRun{cfg1, wal1, first1, len(captures)})
	// Campaign 2 shares the store: its workers are already profiled, so
	// every first Request seeds them FROM the store — the exact path whose
	// time-of-read divergence this suite exists to catch.
	cfg2, wal2, first2 := runCampaign("camp2", 12, 100)
	runs = append(runs, campaignRun{cfg2, wal2, first2, len(captures)})

	if len(captures) < 40 {
		t.Fatalf("campaign produced only %d captures", len(captures))
	}

	// Clean boundaries: every image recovers to the live fingerprint.
	for _, run := range runs {
		for i := run.first; i < run.last; i++ {
			if got := recoverImage(t, captures[i].dir, run.cfg, m); got != captures[i].fp {
				t.Fatalf("capture %d: recovered != live\n%s",
					i, crashtest.Report(t, fmt.Sprintf("clean-%03d", i), DiffFingerprints(got, captures[i].fp, 8)))
			}
		}
	}

	// Torn final frames: previous boundary + a partial next frame must
	// recover to the PREVIOUS live state. Randomized cut points.
	r := mathx.NewRand(99)
	torn := 0
	for _, run := range runs {
		for i := run.first; i+1 < run.last; i++ {
			// The image: this capture's log plus a torn prefix of the next
			// op's first new frame. The store log is this capture's: the
			// serving path acknowledges the WAL append before any store
			// write, so "store behind" is the physical window.
			prev, next := captures[i].dir, captures[i+1].dir
			dst := filepath.Join(root, "torn", fmt.Sprintf("%03d", i))
			if !crashtest.Grow(t, filepath.Join(prev, "wal"), filepath.Join(next, "wal"), filepath.Join(dst, "wal"), r.Float64()) {
				continue // the op logged nothing
			}
			crashtest.CopyTree(t, filepath.Join(prev, "store"), filepath.Join(dst, "store"))
			torn++
			if got := recoverImage(t, dst, run.cfg, m); got != captures[i].fp {
				t.Fatalf("torn variant after capture %d: recovered != live\n%s",
					i, crashtest.Report(t, fmt.Sprintf("torn-%03d", i), DiffFingerprints(got, captures[i].fp, 8)))
			}
		}
	}
	if torn < 10 {
		t.Fatalf("only %d torn variants synthesized", torn)
	}
}

// TestLostStoreDeltaRepairedExact pins the closed lost-merge window at the
// core level: a profiling merge whose store record never reached disk (the
// WAL-committed gauntlet answers survive, the store log loses its final
// record) must be REPAIRED by replay — the recovered system, including the
// shared store, is bit-identical to the live pre-crash system. A second
// recovery of the repaired image must reproduce the first bit-for-bit
// (recovery determinism).
func TestLostStoreDeltaRepairedExact(t *testing.T) {
	root := t.TempDir()
	storePath := filepath.Join(root, "store")
	walDir := filepath.Join(root, "wal")

	probe := newSystem(t, Config{GoldenCount: -1})
	m := probe.Domains().Size()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(storePath, m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 3, RerunEvery: 20,
		WALSegmentBytes: 1 << 10, ProfileScope: "camp", Store: st}
	s := newSystem(t, cfg)
	if _, err := s.Recover(walDir); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(concTasks(s.m, 12)); err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s.GoldenTasks() {
		goldenSet[id] = true
	}
	// Drive two workers through their gauntlets plus some contested
	// traffic, capturing the live state right after each profiling merge
	// lands in the store log.
	type mergePoint struct {
		fp  string
		dir string
	}
	var merges []mergePoint
	storeTail := func() uint64 {
		seq, err := wal.TailSeq(storePath)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	prevTail := uint64(0)
	r := mathx.NewRand(7)
	for i := 0; ; i++ {
		w := fmt.Sprintf("w%d", i%5)
		got, err := s.Request(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		for _, tk := range got {
			c := tk.Truth
			if c == model.NoTruth {
				c = 0
			} else if !goldenSet[tk.ID] && r.Float64() >= 0.8 {
				c = 1 - c
			}
			if err := s.Submit(w, tk.ID, c); err != nil {
				t.Fatal(err)
			}
			if n := storeTail(); n > prevTail {
				prevTail = n
				dir := filepath.Join(root, "merge", fmt.Sprintf("%02d", len(merges)))
				captureImage(t, walDir, storePath, dir)
				merges = append(merges, mergePoint{fp: s.Fingerprint(), dir: dir})
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(merges) < 3 {
		t.Fatalf("only %d profiling merges captured", len(merges))
	}

	for i, mp := range merges {
		// Drop the store log's final record — the merge that just landed.
		crashtest.DropLast(t, filepath.Join(mp.dir, "store"))

		if got := recoverImage(t, mp.dir, cfg, m); got != mp.fp {
			t.Fatalf("merge %d: repaired recovery != live\n%s",
				i, crashtest.Report(t, fmt.Sprintf("lostdelta-%02d", i), DiffFingerprints(got, mp.fp, 8)))
		}

		// Recovery determinism: the first boot repaired the image on disk;
		// a second boot must land on the identical bits.
		if got2 := recoverImage(t, mp.dir, cfg, m); got2 != mp.fp {
			t.Fatalf("merge %d: second recovery != first\n%s",
				i, crashtest.Report(t, fmt.Sprintf("redo-%02d", i), DiffFingerprints(got2, mp.fp, 8)))
		}
	}
}
