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
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/truth"
	"docs/internal/wal"
)

// The hibernation lifecycle suite. Hibernate/wake cycles must be invisible
// at the bit level: a woken campaign's state is its serial-replay state,
// which must equal a never-hibernated campaign that served the identical
// traffic. The lockstep harness below runs exactly that experiment — two
// registries, one interleaving hibernations, one never hibernating, fed
// the same serial workload — and compares fingerprints (which cover the
// full inference state AND the shared worker store) at every acknowledged
// step. TestCampaignDeterminism in internal/core pins the premise that a
// serial trace is reproducible, so any divergence here is hibernation's.

// lockstep is a pair of campaigns — one in the hibernating registry, one
// in the reference — driven with identical operations.
type lockstep struct {
	name   string
	reg    *Registry // hibernates
	ref    *Registry // never hibernates
	golden map[int]bool
}

func (l *lockstep) systems(t *testing.T) (*core.System, *core.System) {
	t.Helper()
	sysA, err := get(l.reg, l.name) // wakes if hibernated
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := get(l.ref, l.name)
	if err != nil {
		t.Fatal(err)
	}
	return sysA, sysB
}

// request issues one Request for one worker against both registries
// (waking the hibernating side's campaign if need be), asserts the
// assignments are identical and returns them. On its own it is a round that
// logs no answer: at most the KindSeed of a store-known worker's first
// visit.
func (l *lockstep) request(t *testing.T, w string) (sysA, sysB *core.System, got []core.Served) {
	t.Helper()
	sysA, sysB = l.systems(t)
	gotA, err := sysA.Request(w, crashKnobs.hit)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := sysB.Request(w, crashKnobs.hit)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA) != len(gotB) {
		t.Fatalf("campaign %s worker %s: hibernating registry assigned %d tasks, reference %d",
			l.name, w, len(gotA), len(gotB))
	}
	for i := range gotA {
		if gotA[i].ID != gotB[i].ID {
			t.Fatalf("campaign %s worker %s: assignment diverged at slot %d: task %d vs %d",
				l.name, w, i, gotA[i].ID, gotB[i].ID)
		}
	}
	return sysA, sysB, gotA
}

// sameFingerprint asserts the hibernating registry's campaign and the
// reference's are bit-identical.
func (l *lockstep) sameFingerprint(t *testing.T, when string) {
	t.Helper()
	sysA, sysB := l.systems(t)
	if fpA, fpB := sysA.Fingerprint(), sysB.Fingerprint(); fpA != fpB {
		t.Fatalf("campaign %s: fingerprint diverged %s\n%s", l.name, when, core.DiffFingerprints(fpA, fpB, 8))
	}
}

// step issues one Request/Submit round for one worker against both
// registries and asserts the assignments and resulting fingerprints are
// identical. Returns how many answers were submitted (0 = campaign idle).
func (l *lockstep) step(t *testing.T, w string, flip func() bool) int {
	t.Helper()
	sysA, sysB, gotA := l.request(t, w)
	for _, tk := range gotA {
		c := tk.Truth
		if c == model.NoTruth {
			c = 0
		} else if !l.golden[tk.ID] && flip() {
			c = 1 - c
		}
		if err := sysA.Submit(w, tk.ID, c); err != nil {
			t.Fatal(err)
		}
		if err := sysB.Submit(w, tk.ID, c); err != nil {
			t.Fatal(err)
		}
	}
	l.sameFingerprint(t, "after worker "+w+"'s submit round")
	return len(gotA)
}

// wakeShape classifies the boot that produced the hibernating registry's
// resident campaign and enforces the hibernation contract on it: whatever
// the campaign's life held, the wake replayed no answer — it restored the
// newest snapshot (none, for a life nobody answered) and re-installed at
// most the publication and worker seeds past it.
func (l *lockstep) wakeShape(t *testing.T, root string) (snapshotUsed bool, replayed int) {
	t.Helper()
	sysA, _ := l.systems(t)
	info := sysA.Recovery()
	if info.SnapshotRejected != "" {
		t.Fatalf("campaign %s: wake rejected its snapshot: %s", l.name, info.SnapshotRejected)
	}
	suffix := crashtest.ReadStream(t, filepath.Join(root, campaignsDir, l.name))[info.SnapshotSeq:]
	if len(suffix) < info.Records {
		t.Fatalf("campaign %s: wake replayed %d records, the log holds %d past seq %d", l.name, info.Records, len(suffix), info.SnapshotSeq)
	}
	for _, rec := range suffix[:info.Records] {
		if rec.Kind == wal.KindAnswer || rec.Kind == wal.KindBatch {
			t.Fatalf("campaign %s: wake after a clean hibernate replayed answer record %d (snapshot used: %v at seq %d)",
				l.name, rec.Seq, info.SnapshotUsed, info.SnapshotSeq)
		}
	}
	return info.SnapshotUsed, info.Records
}

// TestHibernateWakeFingerprintExact is the randomized property test:
// several campaigns interleave traffic with hibernate/wake cycles at
// random points, and after EVERY acknowledged submit round the hibernating
// registry's fingerprint must be bit-identical to the never-hibernated
// reference's. Wakes after a clean hibernate must also be O(suffix): the
// newest snapshot restored and no answer replayed past it. Two fixed rows
// open the run, the lives a hibernation writes nothing for: every campaign
// is hibernated straight after its publication (the wake replays that one
// record, from no snapshot), and two are hibernated again after a request
// that logged a worker seed and no answer.
func TestHibernateWakeFingerprintExact(t *testing.T) {
	regRoot, refRoot := t.TempDir(), t.TempDir()
	reg, err := Open(crashConfig(regRoot))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ref, err := Open(crashConfig(refRoot))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	names := []string{"alpha", "beta", "gamma"}
	steps := make(map[string]*lockstep, len(names))
	for i, name := range names {
		sysA, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		sysB, err := create(ref, name)
		if err != nil {
			t.Fatal(err)
		}
		m := sysA.Domains().Size()
		tasks := synthTasks(m, 20+4*i, 3*i)
		if err := sysA.Publish(tasks); err != nil {
			t.Fatal(err)
		}
		if err := sysB.Publish(synthTasks(m, 20+4*i, 3*i)); err != nil {
			t.Fatal(err)
		}
		golden := map[int]bool{}
		for _, id := range sysA.GoldenTasks() {
			golden[id] = true
		}
		// Golden selection is deterministic, so the reference must have
		// picked the identical set — the lockstep premise.
		refGolden := sysB.GoldenTasks()
		if len(refGolden) != len(golden) {
			t.Fatalf("campaign %s: golden sets differ in size", name)
		}
		for _, id := range refGolden {
			if !golden[id] {
				t.Fatalf("campaign %s: golden task %d only in reference", name, id)
			}
		}
		steps[name] = &lockstep{name: name, reg: reg, ref: ref, golden: golden}
	}

	r := mathx.NewRand(2016)
	flip := func() bool { return r.Float64() >= 0.85 }
	idle := map[string]int{}
	hibernations, cleanWakes := 0, 0
	// cycle hibernates the campaign and wakes it again, holding the wake to
	// the answer-free contract and the woken state to the reference.
	cycle := func(name string) (snapshotUsed bool, replayed int) {
		t.Helper()
		if err := reg.Hibernate(name); err != nil {
			t.Fatalf("hibernate %s: %v", name, err)
		}
		hibernations++
		if reg.Resident(name) {
			t.Fatalf("campaign %s still resident after Hibernate", name)
		}
		snapshotUsed, replayed = steps[name].wakeShape(t, regRoot)
		cleanWakes++
		steps[name].sameFingerprint(t, "across a hibernate/wake cycle")
		return snapshotUsed, replayed
	}
	for _, name := range names {
		if used, n := cycle(name); used || n != 1 {
			t.Fatalf("campaign %s: publish-only wake used a snapshot (%v) or replayed %d records, want the publication alone", name, used, n)
		}
	}
	// One submit round takes w0 through alpha's golden gauntlet, so the store
	// knows w0, whose first request of the other two logs a seed, nothing else.
	if n := steps["alpha"].step(t, "w0", flip); n != crashKnobs.golden {
		t.Fatalf("profiling round submitted %d answers, want %d", n, crashKnobs.golden)
	}
	for _, name := range names[1:] {
		steps[name].request(t, "w0")
		if used, n := cycle(name); used || n != 2 {
			t.Fatalf("campaign %s: seeds-only wake used a snapshot (%v) or replayed %d records, want publication + seed", name, used, n)
		}
	}
	if n := snapshotFiles(t, regRoot); n != 0 {
		t.Fatalf("%d snapshot files after answer-free hibernations only, want 0", n)
	}
	for op := 0; ; op++ {
		active := false
		for _, name := range names {
			if idle[name] > 40 {
				continue
			}
			active = true
			w := fmt.Sprintf("w%d", int(r.Float64()*7))
			if n := steps[name].step(t, w, flip); n == 0 {
				idle[name]++
			} else {
				idle[name] = 0
			}
			// Randomly hibernate this campaign mid-workload; the next step
			// wakes it. Only the hibernating registry transitions — the
			// reference keeps serving live.
			if r.Float64() < 0.12 {
				cycle(name)
			}
		}
		if !active {
			break
		}
	}
	if hibernations < 10 {
		t.Fatalf("workload only exercised %d hibernate/wake cycles", hibernations)
	}
	if st := reg.Stats(); st.WakesTotal != int64(cleanWakes) || st.WakeP99 < 0 {
		t.Fatalf("Stats wakes total = %d, want %d", st.WakesTotal, cleanWakes)
	}
	// Final census: everything is live again (each hibernate was followed
	// by a wake) and the reference never hibernated at all.
	if st := reg.Stats(); st.CampaignsLive != len(names) || st.CampaignsHibernated != 0 || st.CampaignsArchived != 0 {
		t.Fatalf("final counts = %d/%d/%d, want %d/0/0", st.CampaignsLive, st.CampaignsHibernated, st.CampaignsArchived, len(names))
	}
	if total := ref.Stats().WakesTotal; total != 0 {
		t.Fatalf("reference registry woke %d campaigns", total)
	}
}

// TestCleanEvictionWritesNothing: a campaign that took no ANSWER since the
// snapshot it booted from — woken only to be read, or only to hand a
// store-known worker tasks (which logs that worker's seed) — hibernates
// without touching the snapshot file (the final pass returns before it
// would build a replica), and the wake after that restores the same
// snapshot and replays the seeds alone.
func TestCleanEvictionWritesNothing(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sys, err := create(reg, "reader")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(synthTasks(sys.Domains().Size(), 12, 2)); err != nil {
		t.Fatal(err)
	}
	driveInterleaved(t, reg, []string{"reader"}, 3, 5)
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
	st := truth.NewStats(sys.Domains().Size())
	st.Q[0], st.U[0] = 0.9, 3
	if err := reg.Store().Put("stranger", st); err != nil {
		t.Fatal(err)
	}

	var want string
	for cycle, seeds := 0, 0; cycle < 3; cycle++ {
		sys, err = get(reg, "reader") // wakes
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
// against a twin registry that never hibernates. Both sides must agree as
// float bits after every operation, and every wake must have replayed no
// answer.
func TestPropertyLifecycleInvisible(t *testing.T) {
	regRoot, refRoot := t.TempDir(), t.TempDir()
	reg, err := Open(crashConfig(regRoot))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ref, err := Open(crashConfig(refRoot))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	r := mathx.NewRand(20160412)
	pick := func(n int) int { return int(r.Float64() * float64(n)) }
	flip := func() bool { return r.Float64() >= 0.85 }
	var live []*lockstep
	publish := func() {
		name := fmt.Sprintf("c%d", len(live))
		l := &lockstep{name: name, reg: reg, ref: ref, golden: map[int]bool{}}
		for _, side := range []*Registry{reg, ref} {
			sys, err := create(side, name)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Publish(synthTasks(sys.Domains().Size(), 10+2*len(live), len(live))); err != nil {
				t.Fatal(err)
			}
			for _, id := range sys.GoldenTasks() {
				l.golden[id] = true
			}
		}
		live = append(live, l)
	}
	publish()

	// What the wakes restored from: no snapshot and the publication alone,
	// no snapshot and seeds too, a snapshot with seeds past it, a snapshot
	// covering everything.
	var publishOnly, seedsOnly, seedGap, covered int
	for op := 0; op < 400; op++ {
		l := live[pick(len(live))]
		w := fmt.Sprintf("w%d", pick(8))
		if !reg.Resident(l.name) {
			switch used, n := l.wakeShape(t, regRoot); {
			case !used && n == 1:
				publishOnly++
			case !used:
				seedsOnly++
			case n > 0:
				seedGap++
			default:
				covered++
			}
			l.sameFingerprint(t, fmt.Sprintf("at the wake before op %d", op))
		}
		switch x := r.Float64(); {
		case x < 0.05 && len(live) < 6:
			publish()
			l = live[len(live)-1]
		case x < 0.35:
			l.request(t, w)
		case x < 0.70:
			l.step(t, w, flip)
		default:
			if err := reg.Hibernate(l.name); err != nil {
				t.Fatalf("op %d: hibernate %s: %v", op, l.name, err)
			}
			continue // nothing resident to compare until the next touch wakes it
		}
		l.sameFingerprint(t, fmt.Sprintf("after op %d", op))
	}
	if publishOnly == 0 || seedsOnly == 0 || seedGap == 0 || covered == 0 {
		t.Fatalf("wakes by shape: %d publish-only, %d seeds-only, %d seeds past a snapshot, %d fully covered — the seed must exercise all four",
			publishOnly, seedsOnly, seedGap, covered)
	}
	if total := ref.Stats().WakesTotal; total != 0 {
		t.Fatalf("reference registry woke %d campaigns", total)
	}
}

// TestWakeStampedeSingleFlight floods a cold campaign with concurrent
// requests: exactly one reactivation may run (the rest queue on the
// single-flight guard and share its core), every request must succeed, and
// the woken state must be the pre-hibernation state. Run under -race by
// the registry CI suite.
func TestWakeStampedeSingleFlight(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sys, err := create(reg, "cold")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Domains().Size()
	if err := sys.Publish(synthTasks(m, 24, 0)); err != nil {
		t.Fatal(err)
	}
	driveInterleaved(t, reg, []string{"cold"}, 5, 11)
	before := sys.Fingerprint()
	answers := sys.Stats().Answers
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
			core.DiffFingerprints(after, before, 8))
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
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	sys, err := create(reg, "racy")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Domains().Size()
	if err := sys.Publish(synthTasks(m, 40, 1)); err != nil {
		t.Fatal(err)
	}
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
				c := tk.Truth
				if c == model.NoTruth {
					c = 0
				}
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

	final, err := get(reg, "racy")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := final.Stats().Answers, acked.Load(); got != want {
		t.Fatalf("woken campaign has %d answers, %d were acknowledged", got, want)
	}
}

// TestLazyBootAndLRUCap covers the density mechanics: a capped registry
// lists every campaign at boot without replaying any, wakes them on
// demand bit-identically, and hibernates the least-recently-used campaign
// when the resident set exceeds the cap.
func TestLazyBootAndLRUCap(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	for i, name := range names {
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(synthTasks(sys.Domains().Size(), 10+2*i, i)); err != nil {
			t.Fatal(err)
		}
	}
	driveInterleaved(t, reg, names, 6, 5)
	fps := make(map[string]string, len(names))
	counts := make(map[string]int64, len(names))
	for _, name := range names {
		sys, err := get(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		fps[name] = sys.Fingerprint()
		counts[name] = sys.Stats().Answers
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := crashConfig(root)
	cfg.MaxLiveCampaigns = 2
	capped, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
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
		sys, err := get(capped, name)
		if err != nil {
			t.Fatal(err)
		}
		if got := sys.Fingerprint(); got != fps[name] {
			t.Fatalf("campaign %s: woken fingerprint differs from pre-shutdown live state\n%s",
				name, core.DiffFingerprints(got, fps[name], 8))
		}
		if got := sys.Stats().Answers; got != counts[name] {
			t.Fatalf("campaign %s: woke with %d answers, want %d", name, got, counts[name])
		}
		live := capped.Stats().CampaignsLive
		want := i + 1
		if want > 2 {
			want = 2
		}
		if live != want {
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
	root := t.TempDir()
	var clock atomic.Int64
	base := time.Unix(1700000000, 0)
	clock.Store(0)
	cfg := crashConfig(root)
	cfg.HibernateAfter = time.Minute
	cfg.Clock = func() time.Time { return base.Add(time.Duration(clock.Load())) }
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for _, name := range []string{"fresh", "stale"} {
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(synthTasks(sys.Domains().Size(), 8, 0)); err != nil {
			t.Fatal(err)
		}
	}
	driveInterleaved(t, reg, []string{"fresh", "stale"}, 3, 9)

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
	sys, err := get(reg, "stale")
	if err != nil {
		t.Fatal(err)
	}
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
	mem, err := Open(Config{Campaign: core.Config{GoldenCount: -1, HITSize: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	if _, err := create(mem, "m"); err != nil {
		t.Fatal(err)
	}
	if err := mem.Hibernate("m"); err == nil {
		t.Fatal("memory-only registry hibernated a campaign")
	}

	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Hibernate("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hibernate unknown = %v, want ErrNotFound", err)
	}
	sys, err := create(reg, "naps")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(synthTasks(sys.Domains().Size(), 8, 2)); err != nil {
		t.Fatal(err)
	}
	driveInterleaved(t, reg, []string{"naps"}, 3, 3)
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
	booted, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if _, err := get(booted, "naps"); !errors.Is(err, ErrArchived) {
		t.Fatalf("rebooted get archived = %v, want ErrArchived", err)
	}
	if st := booted.Stats(); st.CampaignsArchived != 1 || st.CampaignsLive+st.CampaignsHibernated != 0 {
		t.Fatalf("rebooted counts = %d/%d/%d, want 0/0/1", st.CampaignsLive, st.CampaignsHibernated, st.CampaignsArchived)
	}
}
