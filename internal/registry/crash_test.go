package registry

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/wal"
)

// The multi-campaign crash harness. A registry hosting several campaigns
// runs an interleaved workload with an overlapping worker population (so
// the shared store actually carries profiles across campaigns), then the
// on-disk state is "killed" at randomized per-campaign points — each
// campaign's WAL cut independently, some mid-record, exactly what a kill -9
// leaves when the namespaces flush independently. Booting a registry over
// each crash image must recover every campaign to the state of a serial
// replay of its own surviving records (the per-campaign serial reference),
// and must leave the shared store untouched: replay reads profiles, it
// never re-merges them.

// campaignKnobs are the per-campaign tuning knobs shared by the registry
// under test and the serial reference systems.
var crashKnobs = struct {
	golden, hit, perTask, rerun int
	segBytes                    int64
}{golden: 4, hit: 4, perTask: 3, rerun: 20, segBytes: 1 << 10}

func crashConfig(root string) Config {
	return Config{
		WALDir: root,
		Campaign: core.Config{
			GoldenCount:     crashKnobs.golden,
			HITSize:         crashKnobs.hit,
			AnswersPerTask:  crashKnobs.perTask,
			RerunEvery:      crashKnobs.rerun,
			WALSegmentBytes: crashKnobs.segBytes,
		},
	}
}

// driveInterleaved round-robins randomized workers across every campaign
// until all saturate. Workers are shared across campaigns, so profiling in
// one campaign feeds store-seeded serving in the others.
func driveInterleaved(t *testing.T, reg *Registry, names []string, nWorkers int, seed uint64) {
	t.Helper()
	r := mathx.NewRand(seed)
	goldenSets := make(map[string]map[int]bool, len(names))
	for _, name := range names {
		sys, err := get(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		set := map[int]bool{}
		for _, id := range sys.GoldenTasks() {
			set[id] = true
		}
		goldenSets[name] = set
	}
	idle := map[string]int{}
	for {
		active := false
		for _, name := range names {
			if idle[name] > 40 {
				continue
			}
			active = true
			sys, err := get(reg, name)
			if err != nil {
				t.Fatal(err)
			}
			w := fmt.Sprintf("w%d", int(r.Float64()*float64(nWorkers)))
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
				} else if !goldenSets[name][tk.ID] && r.Float64() >= 0.85 {
					c = 1 - c
				}
				if err := sys.Submit(w, tk.ID, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !active {
			return
		}
	}
}

// storePrint fingerprints a store's full contents — worker records and the
// merge-once profile ledger — with float64 bits.
func storePrint(st *store.Store) string {
	var b strings.Builder
	for _, w := range st.Workers() {
		s, _ := st.Worker(w)
		fmt.Fprintf(&b, "%s:q", w)
		for _, q := range s.Q {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(q))
		}
		b.WriteString("u")
		for _, u := range s.U {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(u))
		}
		b.WriteString(";")
	}
	b.WriteString("|profiles:")
	for _, pid := range st.ProfileIDs() {
		a, _ := st.ProfileAnchor(pid)
		fmt.Fprintf(&b, "%s:q", pid)
		for _, q := range a.Q {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(q))
		}
		b.WriteString("u")
		for _, u := range a.U {
			fmt.Fprintf(&b, "%016x,", math.Float64bits(u))
		}
		b.WriteString(";")
	}
	return b.String()
}

// referenceSystem builds the serial reference for one campaign at one kill
// point: a fresh core.System over its own copy of the crashed store log,
// recovering a fabricated log that holds exactly the surviving records.
// Recovery replays them through the ordinary serial Publish/Submit path —
// the exact definition of the campaign's canonical state.
func referenceSystem(t *testing.T, scope string, recs []wal.Record, storeSrc string, m int) (*core.System, *store.Store) {
	t.Helper()
	refRoot := t.TempDir()
	storePath := filepath.Join(refRoot, storeDir)
	crashtest.CopyTree(t, storeSrc, storePath)
	st, err := store.Open(storePath, m)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.New(core.Config{
		Store:           st,
		ProfileScope:    scope,
		GoldenCount:     crashKnobs.golden,
		HITSize:         crashKnobs.hit,
		AnswersPerTask:  crashKnobs.perTask,
		RerunEvery:      crashKnobs.rerun,
		WALSegmentBytes: crashKnobs.segBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(refRoot, "wal")
	log, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(walDir); err != nil {
		t.Fatal(err)
	}
	return sys, st
}

// TestMultiCampaignCrashRecoveryExact is the acceptance test: a registry
// hosting three active campaigns with overlapping workers is killed at
// randomized per-campaign points (a third of the cuts tear a record
// mid-frame); each reboot must recover every campaign bit-identical to its
// serial reference and must not move the shared worker store by a byte.
func TestMultiCampaignCrashRecoveryExact(t *testing.T) {
	root := t.TempDir()
	cfg := crashConfig(root)
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma"}
	var m int
	for i, name := range names {
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		m = sys.Domains().Size()
		if err := sys.Publish(synthTasks(m, 30+6*i, 5*i)); err != nil {
			t.Fatal(err)
		}
	}
	driveInterleaved(t, reg, names, 9, 42)
	// Sanity: the workload actually exercised cross-campaign carryover.
	if reg.Store().Len() == 0 {
		t.Fatal("workload profiled no workers into the shared store")
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	logs := make(map[string]*crashtest.Log, len(names))
	for _, name := range names {
		logs[name] = crashtest.ReadLog(t, filepath.Join(root, campaignsDir, name))
		if n := len(logs[name].Records); n < 20 {
			t.Fatalf("campaign %s produced only %d records", name, n)
		}
	}
	storeSrc := filepath.Join(root, storeDir)

	r := mathx.NewRand(7)
	const killPoints = 12
	for kill := 0; kill < killPoints; kill++ {
		cuts := make(map[string]crashtest.Kill, len(names))
		for _, name := range names {
			if n := len(logs[name].Records); kill == killPoints-1 {
				// The last kill is the graceful image: everything survives.
				cuts[name] = crashtest.Kill{Surviving: n}
			} else {
				cuts[name] = crashtest.Draw(r, n, 0)
			}
		}
		crashRoot := t.TempDir()
		crashtest.CopyTree(t, storeSrc, filepath.Join(crashRoot, storeDir))
		for _, name := range names {
			logs[name].Cut(t, filepath.Join(crashRoot, campaignsDir, name), cuts[name])
		}

		booted, err := Open(crashConfig(crashRoot))
		if err != nil {
			t.Fatalf("kill %d: boot over crash image: %v", kill, err)
		}
		for _, name := range names {
			c := cuts[name]
			sys, err := get(booted, name)
			if err != nil {
				t.Fatalf("kill %d: campaign %s: %v", kill, name, err)
			}
			info := sys.Recovery()
			if info.Records != c.Surviving {
				t.Fatalf("kill %d: campaign %s recovered %d records, want %d (torn=%d)",
					kill, name, info.Records, c.Surviving, c.Torn)
			}
			if c.Torn > 0 && !info.TornTail {
				t.Errorf("kill %d: campaign %s: torn cut not reported as torn tail", kill, name)
			}
			ref, refStore := referenceSystem(t, name, logs[name].Records[:c.Surviving], storeSrc, m)
			if got, want := sys.Fingerprint(), ref.Fingerprint(); got != want {
				t.Fatalf("kill %d: campaign %s (surviving=%d torn=%d): recovered state differs from serial reference\n%s",
					kill, name, c.Surviving, c.Torn, crashtest.Report(t, fmt.Sprintf("kill-%02d-%s", kill, name), core.DiffFingerprints(got, want, 8)))
			}
			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			if err := refStore.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// Replay must treat the shared store as read-only: the booted
		// registry's store equals a plain load of the crashed store files.
		check, err := store.Open(storeSrc, m)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := storePrint(booted.Store()), storePrint(check); got != want {
			t.Fatalf("kill %d: boot replay mutated the shared worker store", kill)
		}
		if err := check.Close(); err != nil {
			t.Fatal(err)
		}
		if err := booted.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoversUnmergedProfiling pins the closed crash window: a
// worker's golden answers are durable before their profiling merge reaches
// the store, and a crash in between used to lose exactly that one merge
// (the old "bounded loss" carve-out). Since the merge-once profile ledger,
// replaying the gauntlet REPAIRS the store: the profile ID is absent from
// the truncated store log, so replay re-applies the identical merge onto
// the identical prior record and the repaired store is bit-equal to the
// live pre-crash store. A later campaign sees the worker and serves them
// regular tasks — no gauntlet re-run, no loss at all.
func TestCrashRecoversUnmergedProfiling(t *testing.T) {
	root := t.TempDir()
	cfg := crashConfig(root)
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := create(reg, "solo")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Domains().Size()
	tasks := synthTasks(m, 16, 0)
	if err := sys.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	profile(t, sys, "w")
	// A couple of regular answers after profiling, so the WAL tail is past
	// the gauntlet.
	batch, err := sys.Request("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range batch {
		if err := sys.Submit("w", tk.ID, tk.Truth); err != nil {
			t.Fatal(err)
		}
	}
	answers := sys.Stats().Answers
	liveStore := storePrint(reg.Store())
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash image: the full campaign WAL, but the store's log loses its
	// final record — the worker's profiling merge.
	crashRoot := t.TempDir()
	crashtest.CopyTree(t, filepath.Join(root, campaignsDir, "solo"), filepath.Join(crashRoot, campaignsDir, "solo"))
	crashtest.CopyTree(t, filepath.Join(root, storeDir), filepath.Join(crashRoot, storeDir))
	crashtest.DropLast(t, filepath.Join(crashRoot, storeDir))

	booted, err := Open(crashConfig(crashRoot))
	if err != nil {
		t.Fatalf("boot over lost-merge image: %v", err)
	}
	defer booted.Close()
	rec, err := get(booted, "solo")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Stats().Answers; got != answers {
		t.Fatalf("recovered %d answers, want %d", got, answers)
	}
	if _, ok := booted.Store().Worker("w"); !ok {
		t.Fatal("store forgot the worker — replay did not repair the dropped merge record")
	}
	if got := storePrint(booted.Store()); got != liveStore {
		t.Fatalf("repaired store differs from live pre-crash store\nrepaired: %.300s\nlive:     %.300s", got, liveStore)
	}
	// In the recovered campaign the worker IS profiled (replay reran the
	// golden estimate in memory): real tasks, no gauntlet.
	goldenSet := map[int]bool{}
	for _, id := range rec.GoldenTasks() {
		goldenSet[id] = true
	}
	got, err := rec.Request("w", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("recovered campaign served the profiled worker nothing")
	}
	for _, tk := range got {
		if goldenSet[tk.ID] {
			t.Fatalf("recovered campaign re-served golden task %d to a replay-profiled worker", tk.ID)
		}
	}
	// A brand-new campaign sees the repaired record and skips the gauntlet
	// — the crash cost nothing.
	next, err := create(booted, "next")
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Publish(synthTasks(m, 16, 3)); err != nil {
		t.Fatal(err)
	}
	nextGolden := map[int]bool{}
	for _, id := range next.GoldenTasks() {
		nextGolden[id] = true
	}
	fresh, err := next.Request("w", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) == 0 {
		t.Fatal("new campaign served nothing")
	}
	for _, tk := range fresh {
		if nextGolden[tk.ID] {
			t.Fatalf("new campaign re-ran the gauntlet (golden task %d) for a worker the repaired store knows", tk.ID)
		}
	}
}
