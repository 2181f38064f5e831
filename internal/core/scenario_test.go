package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"docs/internal/crashtest"
	"docs/internal/crowd"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// campaigns is this package's face to the crashtest driver: each campaign a
// System over its own log under campaigns/<name>, every one over one store
// — a file-backed one under store when persistent is set, else a
// memory-only one. A print is the Fingerprint with the batch counters,
// which a boot must count as the live campaign did. A scenario's traffic
// drives it through the methods below, each acknowledging the boundaries
// it exposes.
type campaigns struct {
	cfg        Config
	persistent bool
	tasks      func(m, n, offset int) []*model.Task // the task set publish publishes
	t          *testing.T
	ack        func()
	root       string
	st         *store.Store
	sys        map[string]*System
	boots      map[string]crashtest.Boot
	stats      map[string]Stats  // each campaign's at Close
	prints     map[string]string // and its print
	accepted   []BatchItem
	golden     map[string]map[int]bool
	crowd      *crowd.Population
	ref        *System // Replay's reference, the log it replays and the records it applied
	refDir     string
	applied    []wal.Record
}

// script is a scenario over this package's campaigns.
type script = crashtest.Scenario[*campaigns]

// scenario is the driver's Campaign over cfg, publishing concTasks with
// IDs moved up by the offset unless tasks says otherwise.
func scenario(cfg Config, persistent bool) *campaigns {
	return &campaigns{cfg: cfg, persistent: persistent, tasks: func(m, n, offset int) []*model.Task {
		tasks := concTasks(m, n)
		for _, tk := range tasks {
			tk.ID += offset
		}
		return tasks
	}}
}

// run runs sc over c's configuration: live, then every cut it asks for.
func (c *campaigns) run(t *testing.T, sc script) *campaigns {
	t.Helper()
	return crashtest.Run(t, func() *campaigns { return &campaigns{cfg: c.cfg, persistent: c.persistent, tasks: c.tasks} }, sc)
}

func (c *campaigns) Open(t *testing.T, root string, ack func()) {
	c.t, c.ack, c.root = t, ack, root
	c.sys, c.boots, c.stats, c.golden = map[string]*System{}, map[string]crashtest.Boot{}, map[string]Stats{}, map[string]map[int]bool{}
	var err error
	path := ""
	if c.persistent {
		path = filepath.Join(root, "store")
	}
	if c.st, err = store.Open(path, kb.MustDefault().Domains().Size()); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(filepath.Join(root, "campaigns"))
	for _, e := range entries {
		c.boot(e.Name())
	}
}

// boot boots the named campaign from its log.
func (c *campaigns) boot(name string) *System {
	cfg := c.cfg
	cfg.Store, cfg.ProfileScope = c.st, name
	s := newSystem(c.t, cfg)
	info, err := s.Recover(filepath.Join(c.root, "campaigns", name))
	c.must(err)
	c.sys[name], c.boots[filepath.Join("campaigns", name)] = s, crashtest.Boot{Records: info.Records, Torn: info.TornTail, Snapshot: info.SnapshotUsed}
	return s
}

func (c *campaigns) Recovered(*testing.T) map[string]crashtest.Boot { return c.boots }

// bootSystem is newSystem booted from the log at dir, which an empty
// directory is for a campaign not yet published.
func bootSystem(t *testing.T, cfg Config, dir string) *System {
	t.Helper()
	s := newSystem(t, cfg)
	if _, err := s.Recover(dir); err != nil {
		t.Fatalf("boot %s: %v", dir, err)
	}
	return s
}

func (c *campaigns) must(err error) {
	c.t.Helper()
	if err != nil {
		c.t.Fatal(err)
	}
}

// publish creates the named campaign and publishes its n tasks, the task
// set offset IDs up.
func (c *campaigns) publish(name string, n, offset int) {
	s := c.boot(name)
	c.must(s.Publish(c.tasks(s.m, n, offset)))
	c.golden[name] = map[int]bool{}
	for _, id := range s.GoldenTasks() {
		c.golden[name][id] = true
	}
	c.ack()
}

// request requests k tasks of the named campaign for worker — which can
// log the worker's seed — and returns the answers the worker gives them:
// the truth (0 for a task without one), flipped with chance flip on a
// regular task.
func (c *campaigns) request(r *mathx.Rand, name, worker string, k int, flip float64) []BatchItem {
	got, err := c.sys[name].Request(worker, k)
	c.must(err)
	c.ack()
	items := make([]BatchItem, len(got))
	for i, tk := range got {
		choice := max(tk.Truth, 0)
		if tk.Truth >= 0 && !c.golden[name][tk.ID] && r.Float64() < flip {
			choice = 1 - choice
		}
		items[i] = BatchItem{Worker: worker, Task: tk.ID, Choice: choice}
	}
	return items
}

// visit is a request whose answers are submitted one by one; it returns
// how many tasks it served.
func (c *campaigns) visit(r *mathx.Rand, name, worker string, k int, flip float64) int {
	items := c.request(r, name, worker, k, flip)
	c.submit(name, items)
	return len(items)
}

// batchVisit is a request whose answers are submitted in one batch, a
// refused item among them.
func (c *campaigns) batchVisit(r *mathx.Rand, name, worker string, k int, flip float64) int {
	items := c.request(r, name, worker, k, flip)
	if len(items) > 0 {
		c.batch(name, append(items, BatchItem{Worker: worker, Task: -1}))
	}
	return len(items)
}

// submit submits items one by one.
func (c *campaigns) submit(name string, items []BatchItem) {
	for _, a := range items {
		c.must(c.sys[name].Submit(a.Worker, a.Task, a.Choice))
		c.accepted = append(c.accepted, a)
		c.ack()
	}
}

// batch submits items as one batch: every item but one naming task −1 must
// be accepted, and that one refused.
func (c *campaigns) batch(name string, items []BatchItem) {
	statuses, err := c.sys[name].SubmitBatch(items)
	c.must(err)
	for i, st := range statuses {
		if st.OK == (items[i].Task < 0) {
			c.t.Fatalf("batch item %+v: accepted %v (%s)", items[i], st.OK, st.Err)
		}
		if st.OK {
			c.accepted = append(c.accepted, items[i])
		}
	}
	c.ack()
}

// gauntlet takes worker through the campaign's golden gauntlet in HITs of
// k, answering every golden task right, and returns how many it served.
func (c *campaigns) gauntlet(name, worker string, k int) (served int) {
	s := c.sys[name]
	for n := len(c.golden[name]); n > 0; {
		got, err := s.Request(worker, k)
		c.must(err)
		for _, tk := range got {
			c.must(s.Submit(worker, tk.ID, tk.Truth))
			n, served = n-1, served+1
			c.ack()
		}
	}
	return served
}

// crowdVisit is a visit of k tasks by the next arrival of an adversarial
// crowd (spammers, sleepers, a clique) the first visit seeds with seed.
func (c *campaigns) crowdVisit(name string, k int, seed uint64) int {
	s := c.sys[name]
	if c.crowd == nil {
		pop, err := crowd.NewPopulation(crowd.Config{NumWorkers: 16, M: s.m, Seed: seed,
			Adversarial: crowd.Adversarial{SpammerFraction: 0.4, SleeperFraction: 0.15, Cliques: 1, CliqueSize: 3, DriftPerAnswer: -0.01}})
		c.must(err)
		c.crowd = pop
	}
	w := c.crowd.Arrival()
	got, err := s.Request(w.ID, k)
	c.must(err)
	for _, tk := range s.Tasks(got) {
		c.must(s.Submit(w.ID, tk.ID, w.Answer(&tk, c.crowd.Rand())))
		c.ack()
	}
	return len(got)
}

// serveAll serves the campaign to six clients at once (serve), over a
// store holding the profiles of workers w0–w3 from elsewhere, with
// Results, Stats and Fingerprint read beside them when readers is set.
func (c *campaigns) serveAll(name string, readers bool) {
	s := c.sys[name]
	seedElsewhere(c.t, s)
	var beside func(*System)
	if readers {
		beside = func(s *System) {
			if _, err := s.Results(); err != nil {
				c.t.Error(err)
			}
			_, _ = s.Stats(), s.Fingerprint()
		}
	}
	serve(c.t, s, beside)
	c.ack()
}

// restart closes the campaign and boots it from its own log.
func (c *campaigns) restart(name string) {
	c.must(c.sys[name].Close())
	c.boot(name)
	c.ack()
}

func (c *campaigns) Prints(t *testing.T) map[string]string {
	prints := map[string]string{}
	for name, s := range c.sys {
		prints[filepath.Join("campaigns", name)] = printOf(s)
	}
	return prints
}

// printOf is a campaign's print: its Fingerprint and its batch counters.
func printOf(s *System) string {
	st := s.Stats()
	return fmt.Sprintf("%s;batches %d/%d", s.Fingerprint(), st.BatchesTotal, st.BatchAnswersTotal)
}

// fingerprintOf is the Fingerprint a print holds.
func fingerprintOf(print string) string {
	fp, _, _ := strings.Cut(print, ";batches ")
	return fp
}

// Replay applies recs to a WAL-less reference through applyRecord, the
// serial path, advancing one reference while recs extend what it applied
// of the same log.
func (c *campaigns) Replay(t *testing.T, root, dir string, recs []wal.Record) string {
	if c.ref == nil || dir != c.refDir || len(recs) < len(c.applied) || (len(c.applied) > 0 && recs[len(c.applied)-1].Seq != c.applied[len(c.applied)-1].Seq) {
		cfg := c.cfg
		cfg.ProfileScope = filepath.Base(dir)
		if c.persistent { // over a copy of the store image
			path := filepath.Join(t.TempDir(), "store")
			crashtest.CopyTree(t, filepath.Join(root, "store"), path)
			st, err := store.Open(path, kb.MustDefault().Domains().Size())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			cfg.Store = st
		}
		c.ref, c.refDir, c.applied = newSystem(t, cfg), dir, nil
	}
	applyPrefix(t, c.ref, recs[len(c.applied):])
	c.applied = recs
	return printOf(c.ref)
}

func (c *campaigns) Diff(got, want string) string { return diff(got, want) }

// diff says where two fingerprints or prints part: every comparison of
// campaign states in this package's tests goes through it.
func diff(got, want string) string { return DiffFingerprints(got, want, 8) }

// bootsAsLive closes live, boots its log at dir under cfg and holds the
// boot to the state live served, returning the boot.
func bootsAsLive(t *testing.T, live *System, cfg Config, dir string) *System {
	t.Helper()
	want := printOf(live)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	if cfg.Store == nil {
		cfg.Store = live.store
	}
	boot := bootSystem(t, cfg, dir)
	if got := printOf(boot); got != want {
		t.Fatalf("the boot differs from the live state\n%s", crashtest.Report(t, "boot", diff(got, want)))
	}
	return boot
}

func (c *campaigns) Close(t *testing.T) {
	names := make([]string, 0, len(c.sys))
	for name := range c.sys {
		names = append(names, name)
	}
	sort.Strings(names)
	c.prints = c.Prints(t)
	for _, name := range names {
		c.stats[name] = c.sys[name].Stats()
		if err := c.sys[name].Close(); err != nil {
			t.Fatal(err)
		}
	}
	if c.st != nil {
		if err := c.st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// seedElsewhere puts the profiles of workers w0–w3 from another campaign
// into s's store, so their first requests here adopt them.
func seedElsewhere(t *testing.T, s *System) {
	for w := 0; w < 4; w++ {
		st := truth.NewStats(s.m)
		for k := range st.Q {
			st.Q[k], st.U[k] = 0.6+0.05*float64(w), 2
		}
		if _, _, err := s.store.MergeProfile(fmt.Sprintf("elsewhere/w%d", w), fmt.Sprintf("w%d", w), st); err != nil {
			t.Fatal(err)
		}
	}
}

// visits runs visits of k tasks to the campaign by workers w0, w1, … (mod
// workers), until one is served nothing.
func visits(r *mathx.Rand, visit func(r *mathx.Rand, name, worker string, k int, flip float64) int, name string, workers, k int, flip float64) {
	for i := 0; visit(r, name, fmt.Sprintf("w%d", i%workers), k, flip) > 0; i++ {
	}
}
