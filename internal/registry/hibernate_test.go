package registry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/snapshot"
	"docs/internal/truth"
)

// The hibernation lifecycle suite. Hibernate/wake cycles must be invisible
// at the bit level: a woken campaign's state is its serial-replay state,
// which must equal a never-hibernated campaign that served the identical
// traffic. A twinned scenario runs exactly that experiment: every op runs on
// a registry that hibernates and on a twin that never does, which must
// assign the same tasks and agree as float bits — fingerprints cover the
// inference state AND the shared worker store — after every op.

func twinned() *registries { return &registries{twinned: true} }

// TestHibernateWakeFingerprintExact: several campaigns interleave traffic
// with hibernations at random points against the twin. Fixed ops open the
// run, the lives a hibernation writes nothing for: every campaign is
// hibernated straight after its publication (its wake replays that one
// record, from no snapshot), and two are hibernated again after a request
// that logged a worker seed and no answer. Every wake after a clean
// hibernate is O(suffix): the newest snapshot restored and no answer
// replayed past it.
func TestHibernateWakeFingerprintExact(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	live := scenario(t, script{Seed: 2016, Traffic: func(g *registries, r *mathx.Rand) {
		for i, name := range names {
			g.publish(name, 20+4*i, 3*i)
			g.hibernate(name)
		}
		// w0 passes alpha's gauntlet, so the store knows w0, whose first
		// request of the other two logs a seed, nothing else.
		if n := g.gauntlet("alpha", "w0"); n != crashKnobs.golden {
			t.Fatalf("the gauntlet took %d answers, want %d", n, crashKnobs.golden)
		}
		for _, name := range names[1:] {
			g.visit(r, name, "w0", crashKnobs.hit, 0, false)
			g.hibernate(name)
		}
		inTurn(g, r, names, 7, 40, 0.15, 0.12)
	}}, twinned)
	wakes := 0
	for _, n := range live.shapes {
		wakes += n
	}
	if wakes < 10 || live.shapes["publish-only"] != 3 || live.shapes["seeds-only"] != 2 {
		t.Fatalf("wakes by shape %v: want 10 at least, 3 of them publish-only and 2 seeds-only", live.shapes)
	}
	if live.stats.WakesTotal != int64(wakes) || live.stats.WakeP99 < 0 {
		t.Fatalf("Stats counts %d wakes, the scenario saw %d", live.stats.WakesTotal, wakes)
	}
}

// TestCleanEvictionWritesNothing: a campaign that took no ANSWER since the
// snapshot it booted from — woken only to be read, or only to hand a
// store-known worker tasks (which logs that worker's seed) — hibernates
// without touching the snapshot file (the final pass returns before it
// would build a replica), and the wake after that restores the same
// snapshot and replays the seeds alone.
func TestCleanEvictionWritesNothing(t *testing.T) {
	root, reg := served(t, crashConfig, 5, 3, 12, "reader")
	if err := reg.Hibernate("reader"); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(root, campaignsDir, "reader", snapshot.FileName)
	before, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// Backdate the file so a rewrite of identical bytes would still show.
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(snapPath, old, old); err != nil {
		t.Fatal(err)
	}
	// A worker the campaign has never seen but the store knows.
	st := truth.NewStats(kb.MustDefault().Domains().Size())
	st.Q[0], st.U[0] = 0.9, 3
	if err := reg.Store().Put("stranger", st); err != nil {
		t.Fatal(err)
	}

	var want string
	for cycle, seeds := 0, 0; cycle < 3; cycle++ {
		sys, err := get(reg, "reader") // wakes
		if err != nil {
			t.Fatal(err)
		}
		if info := sys.Recovery(); !info.SnapshotUsed || info.Records != seeds {
			t.Fatalf("cycle %d: wake replayed %d records, want %d seeds (snapshot used: %v, rejected: %q)",
				cycle, info.Records, seeds, info.SnapshotUsed, info.SnapshotRejected)
		}
		if fp := sys.Fingerprint(); cycle > 0 && fp != want {
			t.Fatalf("cycle %d: state changed across a clean eviction", cycle)
		}
		_, _ = sys.Result(0)
		if cycle == 1 {
			seq := sys.Stats().WALLastSeq
			if _, err := sys.Request("stranger", crashKnobs.hit); err != nil {
				t.Fatal(err)
			}
			if seeds = int(sys.Stats().WALLastSeq - seq); seeds != 1 {
				t.Fatalf("a store-known worker's first request logged %d records, want its seed alone", seeds)
			}
		}
		want = sys.Fingerprint()
		if err := reg.Hibernate("reader"); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(snapPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) || !st.ModTime().Equal(old) {
			t.Fatalf("cycle %d: clean eviction rewrote the snapshot (mtime %v, want %v)", cycle, st.ModTime(), old)
		}
	}
}

// TestPropertyLifecycleInvisible is the lifecycle property with the lives
// a hibernation writes nothing for drawn at random: campaigns are published
// mid-run, requests come with and without the submits that would follow
// them, and hibernations land anywhere — straight after a publication,
// after a request that logged a seed, twice in a row with nothing between —
// against the twin. The wakes must have restored from all four shapes.
func TestPropertyLifecycleInvisible(t *testing.T) {
	live := scenario(t, script{Seed: 20160412, Traffic: func(g *registries, r *mathx.Rand) {
		pick := func(n int) int { return int(r.Float64() * float64(n)) }
		campaigns := 0
		publish := func() {
			g.publish(fmt.Sprintf("c%d", campaigns), 10+2*campaigns, campaigns)
			campaigns++
		}
		publish()
		for op := 0; op < 400; op++ {
			name, w := fmt.Sprintf("c%d", pick(campaigns)), fmt.Sprintf("w%d", pick(8))
			switch x := r.Float64(); {
			case x < 0.05 && campaigns < 6:
				publish()
			case x < 0.70:
				g.visit(r, name, w, crashKnobs.hit, 0.15, x >= 0.35)
			default:
				g.hibernate(name)
			}
		}
	}}, twinned)
	for _, shape := range []string{"publish-only", "seeds-only", "seeds-past-snapshot", "covered"} {
		if live.shapes[shape] == 0 {
			t.Fatalf("wakes by shape %v: the seed must exercise all four", live.shapes)
		}
	}
}

// TestWakeStampedeSingleFlight floods a cold campaign with concurrent
// requests: exactly one reactivation may run (the rest queue on the
// single-flight guard and share its core), every request must succeed, and
// the woken state must be the pre-hibernation state. Run under -race by
// the registry CI suite.
func TestWakeStampedeSingleFlight(t *testing.T) {
	_, reg := served(t, crashConfig, 11, 5, 24, "cold")
	sys := coreOf(t, reg, "cold")
	before, answers := sys.Fingerprint(), sys.Stats().Answers
	if err := reg.Hibernate("cold"); err != nil {
		t.Fatal(err)
	}

	const stampede = 32
	var (
		wg   sync.WaitGroup
		got  [stampede]*core.System
		errs [stampede]error
	)
	start := make(chan struct{})
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = get(reg, "cold")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < stampede; i++ {
		if errs[i] != nil {
			t.Fatalf("stampede request %d failed: %v", i, errs[i])
		}
		if got[i] != got[0] {
			t.Fatalf("stampede request %d got a different core than request 0 — wake ran more than once", i)
		}
	}
	if total := reg.Stats().WakesTotal; total != 1 {
		t.Fatalf("stampede triggered %d reactivations, want exactly 1", total)
	}
	if got[0].Stats().Answers != answers {
		t.Fatalf("woken campaign has %d answers, want %d", got[0].Stats().Answers, answers)
	}
	if after := got[0].Fingerprint(); after != before {
		t.Fatalf("woken fingerprint differs from pre-hibernation state\n%s",
			diff(after, before))
	}
}

// TestHibernateRaceNeverDropsAcknowledged races submit traffic against
// repeated hibernations. A hibernation is the writer's last call, so a
// call in flight is either logged before it or refused and run again on
// the woken campaign: no call fails, every hibernation's final snapshot
// covers the log, and the woken campaign holds exactly the acknowledged
// answers. Run under -race by the registry CI suite.
func TestHibernateRaceNeverDropsAcknowledged(t *testing.T) {
	root := t.TempDir()
	cfg := crashConfig(root)
	cfg.Campaign.AnswersPerTask = 2
	reg := openRegistry(t, cfg)
	sys := published(t, reg, "racy", 40, 1)
	// Profile the workers up front so the raced submits are all regular
	// answers — the population AnswerCount() counts (golden answers live
	// in the profiling path, not the answer log).
	for w := 0; w < 4; w++ {
		profile(t, sys, fmt.Sprintf("w%d", w))
	}

	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w, idle := 0, 0; idle < 4; w++ {
			worker := fmt.Sprintf("w%d", w%4)
			var got []core.Served
			if err := reg.Do("racy", func(sys *core.System) (err error) {
				got, err = sys.Request(worker, 3)
				return err
			}); err != nil {
				t.Errorf("request: %v", err)
				return
			}
			if len(got) == 0 {
				idle++ // four in a row: every worker is out of tasks
				continue
			}
			idle = 0
			for _, tk := range got {
				c := max(tk.Truth, 0)
				if err := reg.Do("racy", func(sys *core.System) error { return sys.Submit(worker, tk.ID, c) }); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				acked.Add(1)
			}
		}
	}()

	for i := 0; i < 8; i++ {
		if err := reg.Hibernate("racy"); err != nil {
			t.Errorf("hibernate %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-done

	final := coreOf(t, reg, "racy")
	if got, want := final.Stats().Answers, acked.Load(); got != want {
		t.Fatalf("woken campaign has %d answers, %d were acknowledged", got, want)
	}
}

// TestLazyBootAndLRUCap covers the density mechanics: a capped registry
// lists every campaign at boot without replaying any, wakes them on
// demand bit-identically, and hibernates the least-recently-used campaign
// when the resident set exceeds the cap.
func TestLazyBootAndLRUCap(t *testing.T) {
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	live := scenario(t, script{Seed: 5, Traffic: interleaved(names, 10, 2, 1, 6, 40, 0.15)}, plain)
	root := live.root
	cfg := crashConfig(root)
	cfg.MaxLiveCampaigns = 2
	capped := openRegistry(t, cfg)
	// Lazy boot: everything is listed, nothing is resident, no replay ran.
	if st := capped.Stats(); st.CampaignsLive != 0 || st.CampaignsHibernated != len(names) || st.CampaignsArchived != 0 {
		t.Fatalf("cold boot counts = %d/%d/%d, want 0/%d/0", st.CampaignsLive, st.CampaignsHibernated, st.CampaignsArchived, len(names))
	}
	for _, info := range capped.List() {
		if !info.Hibernated || info.RecoveredRecords != 0 {
			t.Fatalf("cold boot: campaign %s hibernated=%v recovered=%d, want true/0", info.Name, info.Hibernated, info.RecoveredRecords)
		}
	}

	// Touch campaigns in order: the resident set never exceeds the cap and
	// the victim is always the least recently used.
	for i, name := range names {
		sys := coreOf(t, capped, name)
		if got, want := sys.Fingerprint(), live.prints[filepath.Join(campaignsDir, name)]; got != want {
			t.Fatalf("campaign %s: woken fingerprint differs from pre-shutdown live state\n%s", name, diff(got, want))
		}
		if live, want := capped.Stats().CampaignsLive, min(i+1, 2); live != want {
			t.Fatalf("after %d touches: %d live, want %d (cap 2)", i+1, live, want)
		}
		if i >= 2 {
			// The LRU victim is the campaign touched two steps ago... gone,
			// while the previous touch is still resident.
			if capped.Resident(names[i-2]) {
				t.Fatalf("after touching %s: %s still resident, should have been evicted", name, names[i-2])
			}
			if !capped.Resident(names[i-1]) {
				t.Fatalf("after touching %s: %s was evicted, but it is the MRU survivor", name, names[i-1])
			}
		}
	}
	if total := capped.Stats().WakesTotal; total != int64(len(names)) {
		t.Fatalf("wakes = %d, want %d", total, len(names))
	}
}

// TestIdleSweepHibernates drives the HibernateAfter path with an injected
// clock: campaigns idle past the deadline hibernate on the next sweep,
// recently-touched ones survive it.
func TestIdleSweepHibernates(t *testing.T) {
	var clock atomic.Int64
	base := time.Unix(1700000000, 0)
	_, reg := served(t, func(root string) Config {
		cfg := crashConfig(root)
		cfg.HibernateAfter = time.Minute
		cfg.Clock = func() time.Time { return base.Add(time.Duration(clock.Load())) }
		return cfg
	}, 9, 3, 8, "fresh", "stale")

	// Both idle 2 minutes; then "fresh" is touched just before the sweep.
	clock.Add(int64(2 * time.Minute))
	if _, err := get(reg, "fresh"); err != nil {
		t.Fatal(err)
	}
	if n := reg.SweepIdle(); n != 1 {
		t.Fatalf("sweep released %d campaigns, want 1 (only the stale one)", n)
	}
	if reg.Resident("stale") {
		t.Fatal("stale campaign still resident after idle sweep")
	}
	if !reg.Resident("fresh") {
		t.Fatal("freshly-touched campaign was swept")
	}
	// A second sweep with nothing idle is a no-op; waking the stale
	// campaign serves normally.
	if n := reg.SweepIdle(); n != 0 {
		t.Fatalf("second sweep released %d campaigns, want 0", n)
	}
	sys := coreOf(t, reg, "stale")
	if sys.Stats().Answers == 0 {
		t.Fatal("woken campaign lost its answers")
	}
}

// TestHibernateLifecycleErrors pins the configuration and state-machine
// edges: hibernation demands durability, terminal states stay terminal,
// and a hibernated campaign archives without waking.
func TestHibernateLifecycleErrors(t *testing.T) {
	// Hibernation config without a WAL root must be refused outright.
	if _, err := Open(Config{MaxLiveCampaigns: 2}); err == nil {
		t.Fatal("Open accepted MaxLiveCampaigns without WALDir")
	}
	if _, err := Open(Config{HibernateAfter: time.Minute}); err == nil {
		t.Fatal("Open accepted HibernateAfter without WALDir")
	}

	// A memory-only registry cannot hibernate a campaign.
	mem := openRegistry(t, Config{Campaign: core.Config{GoldenCount: -1, HITSize: 3}})
	if _, err := create(mem, "m"); err != nil {
		t.Fatal(err)
	}
	if err := mem.Hibernate("m"); err == nil {
		t.Fatal("memory-only registry hibernated a campaign")
	}

	root, reg := served(t, crashConfig, 3, 3, 8, "naps")
	if err := reg.Hibernate("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hibernate unknown = %v, want ErrNotFound", err)
	}
	if err := reg.Hibernate("naps"); err != nil {
		t.Fatal(err)
	}
	// Idempotent: hibernating a hibernated campaign is a no-op.
	if err := reg.Hibernate("naps"); err != nil {
		t.Fatalf("second hibernate = %v, want nil no-op", err)
	}
	// Archive without waking: the campaign's state is already durable, so
	// only the marker is written — and it must NOT come back resident.
	if err := reg.Archive("naps"); err != nil {
		t.Fatal(err)
	}
	if reg.Resident("naps") {
		t.Fatal("archiving a hibernated campaign woke it")
	}
	if err := reg.Hibernate("naps"); !errors.Is(err, ErrArchived) {
		t.Fatalf("hibernate archived = %v, want ErrArchived", err)
	}
	if _, err := get(reg, "naps"); !errors.Is(err, ErrArchived) {
		t.Fatalf("get archived = %v, want ErrArchived", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// The marker survived: a reboot lists the campaign archived, not live.
	booted := openRegistry(t, crashConfig(root))
	if _, err := get(booted, "naps"); !errors.Is(err, ErrArchived) {
		t.Fatalf("rebooted get archived = %v, want ErrArchived", err)
	}
	if st := booted.Stats(); st.CampaignsArchived != 1 || st.CampaignsLive+st.CampaignsHibernated != 0 {
		t.Fatalf("rebooted counts = %d/%d/%d, want 0/0/1", st.CampaignsLive, st.CampaignsHibernated, st.CampaignsArchived)
	}
}

// The hibernate-path crash sweep. A hibernation is a sequence of durable
// steps — WAL fsync, final snapshot write (atomic tmp+rename), memory
// release — and a kill -9 can land between any two of them, or tear the
// snapshot file itself (a torn tmp promoted by a buggy filesystem, or a
// corrupted sector). Every image must boot to the campaign's live state:
// the safe direction is "boots with a longer replay", never state loss.
// Each image is booted EAGERLY (uncapped registry, replay at Open) and
// LAZILY (capped registry, replay on first use — the wake path), because
// density is where crashed hibernations are rebooted.

// hibernated runs a campaign through traffic → hibernate → wake → more
// traffic → hibernate, and returns the live registries, closed: the final
// tree, its print and the two snapshots the hibernations left — the first
// a stale-but-valid one for the suffix-replay case.
func hibernated(t *testing.T) *registries {
	t.Helper()
	live := scenario(t, script{Seed: 23, Traffic: func(g *registries, r *mathx.Rand) {
		g.publish("solo", 24, 0)
		for _, w := range []string{"w0", "w1"} {
			g.gauntlet("solo", w)
		}
		for _, w := range []string{"w0", "w1"} {
			g.visit(r, "solo", w, crashKnobs.hit, 0, true)
		}
		g.hibernate("solo")
		inTurn(g, r, []string{"solo"}, 5, 40, 0.15, 0)
		g.hibernate("solo")
	}}, plain)
	if len(live.snaps) != 2 || live.snaps[0].records >= live.snaps[1].records {
		t.Fatalf("the hibernations left %d snapshots", len(live.snaps))
	}
	return live
}

// bootImage boots a copy of live's tree, damaged by mutate, eagerly or
// lazily, and holds the campaign to the live print with the recovery
// shape given: whether the boot used or rejected a snapshot, and how many
// records it replayed.
func bootImage(t *testing.T, live *registries, mutate func(dir string), lazy, used, rejected bool, records int) {
	t.Helper()
	img := t.TempDir()
	crashtest.CopyTree(t, live.root, img)
	mutate(filepath.Join(img, campaignsDir, "solo"))
	g := &registries{}
	if lazy {
		g.cap = 1
	}
	g.Open(t, img, nil)
	defer g.Close(t)
	if st := g.reg.Stats(); lazy && st.CampaignsLive != 0 {
		t.Fatalf("a capped cold boot holds %d campaigns live, want 0", st.CampaignsLive)
	}
	sys := g.core(t, g.reg, "solo")
	info := sys.Recovery()
	if info.SnapshotUsed != used || (info.SnapshotRejected != "") != rejected || info.Records != records {
		t.Fatalf("lazy %v: used %v rejected %q records %d, want used %v rejected %v records %d",
			lazy, info.SnapshotUsed, info.SnapshotRejected, info.Records, used, rejected, records)
	}
	if got, want := sys.Fingerprint(), live.prints["campaigns/solo"]; got != want {
		t.Fatalf("lazy %v: the boot differs from the live state\n%s", lazy, crashtest.Report(t, "hibernate", g.Diff(got, want)))
	}
}

// writeSnap returns a mutation that writes data as the snapshot file, or
// removes the file when data is nil.
func writeSnap(t *testing.T, data func() []byte) func(string) {
	return func(dir string) {
		path := filepath.Join(dir, snapshot.FileName)
		if b := data(); b == nil {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHibernateCrashPointsExact sweeps the kill points of the hibernate
// sequence. Every image recovers the whole log's state bit-exactly; only
// the replay's LENGTH varies with where the crash landed. A life with no
// answer in it hibernates by drain → sync → close and writes no file, so
// every kill point of that hibernation leaves the log alone, which boots
// by replaying all of it — the publication, and the seeds.
func TestHibernateCrashPointsExact(t *testing.T) {
	live := hibernated(t)
	stale, last := live.snaps[0], live.snaps[1]
	all := last.records
	for _, tc := range []struct {
		label          string
		data           func() []byte
		used, rejected bool
		records        int
	}{
		// Killed after the memory release: the final snapshot covers the
		// whole log, and a wake replays nothing.
		{"clean-hibernate", func() []byte { return last.snap }, true, false, 0},
		// Killed between the WAL fsync and the snapshot rename: the previous
		// snapshot survives; restore it and replay the suffix.
		{"crash-before-snapshot-rename", func() []byte { return stale.snap }, true, false, all - stale.records},
		// Killed before any snapshot existed: full replay, nothing lost.
		{"crash-before-first-snapshot", func() []byte { return nil }, false, false, all},
		// A torn or rotten snapshot is rejected LOUDLY and the boot replays
		// in full — losing time, never state.
		{"torn-snapshot-frame", func() []byte { return last.snap[:len(last.snap)/3] }, false, true, all},
		{"torn-snapshot-tail", func() []byte { return last.snap[:len(last.snap)-3] }, false, true, all},
		{"corrupt-snapshot-byte", func() []byte {
			b := append([]byte(nil), last.snap...)
			b[len(b)/2] ^= 0x40
			return b
		}, false, true, all},
	} {
		t.Run(tc.label, func(t *testing.T) {
			for _, lazy := range []bool{false, true} {
				bootImage(t, live, writeSnap(t, tc.data), lazy, tc.used, tc.rejected, tc.records)
			}
		})
	}
	for label, seeded := range map[string]bool{"publish-only": false, "seeds-only": true} {
		live := scenario(t, script{Traffic: func(g *registries, r *mathx.Rand) {
			g.publish("solo", 24, 0)
			if seeded { // a store-known worker's first request logs her seed
				g.publish("other", 12, 5)
				g.gauntlet("other", "w0")
				g.visit(r, "solo", "w0", crashKnobs.hit, 0, false)
			}
			g.hibernate("solo")
		}}, plain)
		if len(live.snaps) != 0 {
			t.Fatalf("%s: an answer-free hibernation left a snapshot file", label)
		}
		records := map[bool]int{false: 1, true: 2}[seeded] // the publication, and the seed
		for _, lazy := range []bool{false, true} {
			bootImage(t, live, func(string) {}, lazy, false, false, records)
		}
	}
}

// TestHibernateCrashMidLogTear combines the stale snapshot with a torn WAL
// tail — the double-fault image of a machine dying mid-hibernate while
// the filesystem scrambles both files. The boot restores the snapshot,
// replays the intact suffix up to the tear, and matches the serial
// reference OF THAT PREFIX: every durable record survives, every torn one
// was never acknowledged as covered.
func TestHibernateCrashMidLogTear(t *testing.T) {
	live := hibernated(t)
	img := t.TempDir()
	crashtest.CopyTree(t, filepath.Join(live.root, storeDir), filepath.Join(img, storeDir))
	dir := filepath.Join(img, campaignsDir, "solo")
	log := crashtest.ReadLog(t, filepath.Join(live.root, campaignsDir, "solo"))
	surviving := len(log.Records) - 2
	log.Cut(t, dir, crashtest.Kill{Surviving: surviving, Torn: 5})
	writeSnap(t, func() []byte { return live.snaps[0].snap })(dir)
	g := &registries{}
	g.Open(t, img, nil)
	defer g.Close(t)
	sys := g.core(t, g.reg, "solo")
	if info := sys.Recovery(); !info.SnapshotUsed || !info.TornTail || info.Records != surviving-live.snaps[0].records {
		t.Fatalf("used %v (rejected %q), torn tail %v, replayed %d records; want the stale snapshot, the tear and the %d-record suffix",
			info.SnapshotUsed, info.SnapshotRejected, info.TornTail, info.Records, surviving-live.snaps[0].records)
	}
	if got, want := sys.Fingerprint(), g.Replay(t, img, "campaigns/solo", log.Records[:surviving]); got != want {
		t.Fatalf("the double-fault boot differs from the serial reference of the surviving prefix\n%s",
			crashtest.Report(t, "double-fault", g.Diff(got, want)))
	}
}
