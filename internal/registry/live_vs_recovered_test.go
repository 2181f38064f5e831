package registry

import (
	"fmt"
	"path/filepath"
	"testing"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/mathx"
	"docs/internal/model"
)

// TestRegistryLiveVsRecoveredExact is the multi-campaign face of the
// live-vs-recovered contract: two campaigns interleave over the shared
// store with an overlapping worker population, so one campaign's profiling
// merges keep MOVING the store while the other seeds workers from it. The
// historical ~1e-7 drift lived exactly here — replay re-read the store at
// its final state where the live system read it at seed time. Since seeds
// are restored from each campaign's own log, a registry booted over a copy
// of the durable tree must reproduce every campaign's live fingerprint
// bit-for-bit at every acknowledged boundary.
func TestRegistryLiveVsRecoveredExact(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta"}
	goldenSets := make(map[string]map[int]bool, len(names))
	systems := make(map[string]*core.System, len(names))
	for i, name := range names {
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		m := sys.Domains().Size()
		if err := sys.Publish(synthTasks(m, 12, i*3)); err != nil {
			t.Fatal(err)
		}
		set := map[int]bool{}
		for _, id := range sys.GoldenTasks() {
			set[id] = true
		}
		goldenSets[name] = set
		systems[name] = sys
	}

	type capturePoint struct {
		fps map[string]string // live fingerprint per campaign
		dir string            // copy of the whole durable tree
	}
	var caps []capturePoint
	capture := func() {
		dir := filepath.Join(root, "..", fmt.Sprintf("img-%03d", len(caps)))
		crashtest.CopyTree(t, root, dir)
		fps := make(map[string]string, len(names))
		for _, name := range names {
			fps[name] = systems[name].Fingerprint()
		}
		caps = append(caps, capturePoint{fps: fps, dir: dir})
	}

	// Interleave: alternate campaigns per request so profiling merges from
	// one land between the other's seeds. Capture after every acknowledged
	// submit round.
	r := mathx.NewRand(31)
	idle := map[string]int{}
	for round := 0; ; round++ {
		active := false
		for _, name := range names {
			if idle[name] > 30 {
				continue
			}
			active = true
			sys := systems[name]
			w := fmt.Sprintf("w%d", int(r.Float64()*6))
			got, err := sys.Request(w, crashKnobs.hit)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				idle[name]++
				continue
			}
			idle[name] = 0
			for _, tk := range got {
				c := tk.Truth
				if c == model.NoTruth {
					c = 0
				} else if !goldenSets[name][tk.ID] && r.Float64() >= 0.8 {
					c = 1 - c
				}
				if err := sys.Submit(w, tk.ID, c); err != nil {
					t.Fatal(err)
				}
			}
			capture()
		}
		if !active {
			break
		}
	}
	liveStore := storePrint(reg.Store())
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if len(caps) < 10 {
		t.Fatalf("workload produced only %d captures", len(caps))
	}

	for i, cp := range caps {
		booted, err := Open(crashConfig(cp.dir))
		if err != nil {
			t.Fatalf("capture %d: boot: %v", i, err)
		}
		for _, name := range names {
			sys, err := get(booted, name)
			if err != nil {
				t.Fatalf("capture %d: %v", i, err)
			}
			if got := sys.Fingerprint(); got != cp.fps[name] {
				t.Fatalf("capture %d: campaign %s recovered != live\n%s",
					i, name, crashtest.Report(t, fmt.Sprintf("capture-%03d-%s", i, name), core.DiffFingerprints(got, cp.fps[name], 8)))
			}
		}
		if err := booted.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The final image IS the clean shutdown state: its store must match the
	// live store bit-for-bit too (fingerprints above already cover it, but
	// the direct check keeps the store comparison independent of the
	// fingerprint format).
	final, err := Open(crashConfig(caps[len(caps)-1].dir))
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if got := storePrint(final.Store()); got != liveStore {
		t.Fatalf("final image store differs from live store\ngot:  %.300s\nlive: %.300s", got, liveStore)
	}
}
