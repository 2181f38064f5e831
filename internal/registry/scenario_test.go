package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/snapshot"
	"docs/internal/store"
	"docs/internal/wal"
)

// crashKnobs are the campaign knobs the tests read back: the golden count
// and the HIT size of campaignConfig.
var crashKnobs = struct{ golden, hit int }{golden: 4, hit: 4}

// crashConfig is a registry over root whose campaigns run campaignConfig.
func crashConfig(root string) Config { return Config{WALDir: root, Campaign: campaignConfig()} }

// campaignConfig is the campaign the registries under test and their
// serial references share.
func campaignConfig() core.Config {
	return core.Config{GoldenCount: crashKnobs.golden, HITSize: crashKnobs.hit, AnswersPerTask: 3, RerunEvery: 20, WALSegmentBytes: 1 << 10}
}

// registries is this package's face to the crashtest driver: a Registry over
// the tree, each campaign printed by its core's Fingerprint (which covers
// the shared store), driven by a scenario's traffic through the methods
// below. A campaign the scenario hibernated prints as it stood
// at its hibernation, so reading the prints wakes nothing. With a twin,
// every op runs on a second registry too, one that never hibernates, and
// each op holds the two to the same assignments and the same bits; every
// wake is then held to replaying no answer, and counted by what it
// restored from.
type registries struct {
	cap     int  // MaxLiveCampaigns
	twinned bool // run a twin beside
	t       *testing.T
	ack     func()
	twin    *Registry
	reg     *Registry
	root    string
	golden  map[string]map[int]bool
	asleep  map[string]string // the print of each campaign the scenario hibernated
	shapes  map[string]int    // twin: the wakes by what they restored
	stats   Stats             // at Close
	prints  map[string]string // at Close
	snaps   []hibernation     // the snapshot each hibernation left, in order
}

// hibernation is the snapshot file a hibernation left and the records of
// the log it covers.
type hibernation struct {
	snap    []byte
	records int
}

// script is a scenario over registries.
type script = crashtest.Scenario[*registries]

// scenario runs sc over registries made by mk, live and at every cut, and
// returns the live one, closed.
func scenario(t *testing.T, sc script, mk func() *registries) *registries {
	t.Helper()
	return crashtest.Run(t, mk, sc)
}

func plain() *registries { return &registries{} }

func (g *registries) Open(t *testing.T, root string, ack func()) {
	cfg := crashConfig(root)
	cfg.MaxLiveCampaigns = g.cap
	g.reg, g.root, g.t, g.ack = openRegistry(t, cfg), root, t, ack
	g.golden, g.asleep, g.shapes = map[string]map[int]bool{}, map[string]string{}, map[string]int{}
	if g.twinned {
		g.twin = openRegistry(t, crashConfig(t.TempDir()))
	}
}

// sides is the registry under test and, with a twin, the twin.
func (g *registries) sides() []*Registry {
	if g.twin != nil {
		return []*Registry{g.reg, g.twin}
	}
	return []*Registry{g.reg}
}

// core is the campaign's core in reg, woken if need be; a wake of the
// registry under test is checked and counted when there is a twin.
func (g *registries) core(t *testing.T, reg *Registry, name string) *core.System {
	woke := reg == g.reg && !reg.Resident(name)
	sys := coreOf(t, reg, name)
	delete(g.asleep, name)
	if woke && g.twin != nil {
		g.shapes[g.wakeShape(t, sys, name)]++
	}
	return sys
}

// wakeShape holds a wake to the hibernation contract — whatever the
// campaign's life held, the wake replayed no answer: it restored the newest
// snapshot (none, for a life nobody answered) and re-installed at most the
// publication and worker seeds past it — and says what it restored from.
func (g *registries) wakeShape(t *testing.T, sys *core.System, name string) string {
	info := sys.Recovery()
	if info.SnapshotRejected != "" {
		t.Fatalf("campaign %s: the wake rejected its snapshot: %s", name, info.SnapshotRejected)
	}
	suffix := crashtest.ReadStream(t, filepath.Join(g.root, campaignsDir, name))[info.SnapshotSeq:]
	for _, rec := range suffix[:info.Records] {
		if rec.Kind == wal.KindAnswer || rec.Kind == wal.KindBatch {
			t.Fatalf("campaign %s: a wake after a clean hibernate replayed answer record %d", name, rec.Seq)
		}
	}
	switch {
	case !info.SnapshotUsed && info.Records == 1:
		return "publish-only"
	case !info.SnapshotUsed:
		return "seeds-only"
	case info.Records > 0:
		return "seeds-past-snapshot"
	}
	return "covered"
}

// on runs op on the campaign in the registry under test and acknowledges
// the boundary; with a twin it runs op there too and holds the two to the
// same bits. It returns what op served under test.
func (g *registries) on(name string, op func(twin bool, sys *core.System) int) int {
	served := op(false, g.core(g.t, g.reg, name))
	g.ack()
	if g.twin != nil {
		op(true, g.core(g.t, g.twin, name))
		if a, b := g.core(g.t, g.reg, name).Fingerprint(), g.core(g.t, g.twin, name).Fingerprint(); a != b {
			g.t.Fatalf("campaign %s: the registry under test and its twin part\n%s", name, diff(a, b))
		}
	}
	return served
}

// publish creates the named campaign and publishes synthTasks(m, n,
// offset) on it.
func (g *registries) publish(name string, n, offset int) {
	for _, reg := range g.sides() {
		g.golden[name] = goldenOf(published(g.t, reg, name, n, offset))
	}
	g.ack()
}

// gauntlet takes worker through the campaign's golden gauntlet and returns
// how many tasks it served.
func (g *registries) gauntlet(name, worker string) int {
	return g.on(name, func(_ bool, sys *core.System) int { return len(profile(g.t, sys, worker)) })
}

// visit requests k tasks of the campaign for worker and, when answer is
// set, submits an answer to each: the truth (0 for a task without one),
// flipped with chance flip on a regular task. The twin must be assigned the
// same tasks, and it gets the same answers.
func (g *registries) visit(r *mathx.Rand, name, worker string, k int, flip float64, answer bool) int {
	var first []core.Served
	var choices []int
	return g.on(name, func(twin bool, sys *core.System) int {
		got, err := sys.Request(worker, k)
		if err != nil {
			g.t.Fatal(err)
		}
		if !twin {
			first = got
		} else if fmt.Sprint(got) != fmt.Sprint(first) {
			g.t.Fatalf("campaign %s worker %s: the twin was assigned %v, the registry under test %v", name, worker, got, first)
		}
		for j, tk := range got {
			if !answer {
				break
			}
			c := max(tk.Truth, 0)
			if tk.Truth >= 0 && !g.golden[name][tk.ID] && r.Float64() < flip {
				c = 1 - c
			}
			if twin {
				c = choices[j]
			}
			choices = append(choices, c)
			if err := sys.Submit(worker, tk.ID, c); err != nil {
				g.t.Fatal(err)
			}
		}
		return len(got)
	})
}

// hibernate hibernates the campaign, keeping its print and the snapshot
// the hibernation left; its next op wakes it.
func (g *registries) hibernate(name string) {
	if g.reg.Resident(name) {
		g.asleep[name] = g.core(g.t, g.reg, name).Fingerprint()
	}
	if err := g.reg.Hibernate(name); err != nil {
		g.t.Fatalf("hibernate %s: %v", name, err)
	}
	if snap, err := os.ReadFile(filepath.Join(g.root, campaignsDir, name, snapshot.FileName)); err == nil {
		g.snaps = append(g.snaps, hibernation{snap, len(crashtest.ReadStream(g.t, filepath.Join(g.root, campaignsDir, name)))})
	}
	g.ack()
}

func (g *registries) Recovered(t *testing.T) map[string]crashtest.Boot {
	boots := map[string]crashtest.Boot{}
	for _, name := range g.reg.Names() {
		info := coreOf(t, g.reg, name).Recovery()
		boots[filepath.Join(campaignsDir, name)] = crashtest.Boot{Records: info.Records, Torn: info.TornTail, Snapshot: info.SnapshotUsed}
	}
	return boots
}

func (g *registries) Prints(t *testing.T) map[string]string {
	prints := map[string]string{}
	for _, name := range g.reg.Names() {
		if p, ok := g.asleep[name]; ok {
			prints[filepath.Join(campaignsDir, name)] = p
		} else {
			prints[filepath.Join(campaignsDir, name)] = g.core(t, g.reg, name).Fingerprint()
		}
	}
	return prints
}

// Replay boots a log holding exactly recs, written afresh, on a lone core
// over a copy of the store image: a recovery replays them through the
// ordinary serial path, the definition of the campaign's state.
func (g *registries) Replay(t *testing.T, root, dir string, recs []wal.Record) string {
	ref := t.TempDir()
	crashtest.CopyTree(t, filepath.Join(root, storeDir), filepath.Join(ref, storeDir))
	log, err := wal.Open(filepath.Join(ref, "wal"), wal.Options{})
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
	cfg := campaignConfig()
	if cfg.Store, err = store.Open(filepath.Join(ref, storeDir), kb.MustDefault().Domains().Size()); err != nil {
		t.Fatal(err)
	}
	defer cfg.Store.Close()
	cfg.ProfileScope = filepath.Base(dir)
	sys, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Recover(filepath.Join(ref, "wal")); err != nil {
		t.Fatal(err)
	}
	return sys.Fingerprint()
}

func (g *registries) Diff(got, want string) string { return diff(got, want) }

// diff says where two fingerprints part: every comparison of campaign
// states in this package's tests goes through it.
func diff(got, want string) string { return core.DiffFingerprints(got, want, 8) }

func (g *registries) Close(t *testing.T) {
	if g.reg == nil {
		return
	}
	g.stats, g.prints = g.reg.Stats(), g.Prints(t)
	for _, reg := range g.sides() {
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// interleaved publishes the named campaigns — n+step·i tasks, task set
// offset·i — and visits them in turn (inTurn).
func interleaved(names []string, n, step, offset, workers, idle int, flip float64) func(*registries, *mathx.Rand) {
	return func(g *registries, r *mathx.Rand) {
		for i, name := range names {
			g.publish(name, n+step*i, offset*i)
		}
		inTurn(g, r, names, workers, idle, flip, 0)
	}
}

// inTurn visits the named campaigns in turn, each by a worker drawn among
// workers who answers a regular task wrong with chance flip, and hibernates
// each after a visit with chance sleep, until each was served nothing idle
// times running. Workers are shared across campaigns, so profiling in one
// feeds store-seeded serving in the others.
func inTurn(g *registries, r *mathx.Rand, names []string, workers, idle int, flip, sleep float64) {
	idled := map[string]int{}
	for active := true; active; {
		active = false
		for _, name := range names {
			if idled[name] > idle {
				continue
			}
			active = true
			w := fmt.Sprintf("w%d", int(r.Float64()*float64(workers)))
			if g.visit(r, name, w, crashKnobs.hit, flip, true) == 0 {
				idled[name]++
			} else {
				idled[name] = 0
			}
			if sleep > 0 && r.Float64() < sleep {
				g.hibernate(name)
			}
		}
	}
}

// openRegistry opens a registry under cfg, which the test's cleanup closes.
func openRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	return reg
}

// coreOf is get failing the test on an error.
func coreOf(t *testing.T, reg *Registry, name string) *core.System {
	t.Helper()
	sys, err := get(reg, name)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// published creates the named campaign and publishes synthTasks(m, n,
// offset) on it, returning its core.
func published(t *testing.T, reg *Registry, name string, n, offset int) *core.System {
	t.Helper()
	sys, err := create(reg, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(synthTasks(sys.Domains().Size(), n, offset)); err != nil {
		t.Fatal(err)
	}
	return sys
}

// served runs the interleaved visits to the named campaigns — n tasks each,
// workers drawn among workers — as a scenario, and opens a registry under
// cfg over the tree it left; the test's cleanup closes it.
func served(t *testing.T, cfg func(root string) Config, seed uint64, workers, n int, names ...string) (string, *Registry) {
	t.Helper()
	live := scenario(t, script{Seed: seed, Traffic: interleaved(names, n, 0, 0, workers, 40, 0.15)}, plain)
	return live.root, openRegistry(t, cfg(live.root))
}
