package registry

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// synthTasks builds n two-choice tasks with precomputed one-hot domain
// vectors (skipping DVE) and ground truth i%2. IDs and domain assignment
// are offset so different campaigns get genuinely different task sets.
func synthTasks(m, n, offset int) []*model.Task {
	tasks := make([]*model.Task, n)
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[(i+offset)%m] = 1
		tasks[i] = &model.Task{
			ID: i, Text: fmt.Sprintf("c%d task %d", offset, i), Choices: []string{"a", "b"},
			Domain: dom, Truth: (i + offset) % 2, TrueDomain: model.NoTruth,
		}
	}
	return tasks
}

// get returns the named campaign's core, waking it first if need be. The
// core outlives the lease Do held for it, so only a test that does not
// hibernate, archive or close the campaign while it uses the core — or
// that means to use a closed one — may hold it.
// memStore opens a memory-only worker store over the default KB's domains,
// for a core built outside a registry.
func memStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open("", kb.MustDefault().Domains().Size())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func get(reg *Registry, name string) (*core.System, error) {
	var sys *core.System
	err := reg.Do(name, func(s *core.System) error { sys = s; return nil })
	return sys, err
}

// create registers the campaign and returns its core as get does.
func create(reg *Registry, name string) (*core.System, error) {
	if err := reg.Create(name); err != nil {
		return nil, err
	}
	return get(reg, name)
}

// profile pushes worker w through sys's golden gauntlet with perfect
// answers and returns the golden answers in the order they were submitted.
func profile(t *testing.T, sys *core.System, w string) []model.Answer {
	t.Helper()
	goldenSet := map[int]bool{}
	for _, id := range sys.GoldenTasks() {
		goldenSet[id] = true
	}
	var answered []model.Answer
	for len(answered) < len(goldenSet) {
		got, err := sys.Request(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatalf("worker %s: empty batch mid-gauntlet (%d/%d)", w, len(answered), len(goldenSet))
		}
		for _, tk := range got {
			if !goldenSet[tk.ID] {
				t.Fatalf("worker %s: served regular task %d before profiling", w, tk.ID)
			}
			if err := sys.Submit(w, tk.ID, tk.Truth); err != nil {
				t.Fatal(err)
			}
			answered = append(answered, model.Answer{Worker: w, Task: tk.ID, Choice: tk.Truth})
		}
	}
	return answered
}

// goldenTasksOf returns the campaign's golden tasks in publication order.
func goldenTasksOf(sys *core.System, tasks []*model.Task) []*model.Task {
	goldenSet := map[int]bool{}
	for _, id := range sys.GoldenTasks() {
		goldenSet[id] = true
	}
	var out []*model.Task
	for _, tk := range tasks {
		if goldenSet[tk.ID] {
			out = append(out, tk)
		}
	}
	return out
}

func sameStats(a, b *truth.Stats) bool {
	if len(a.Q) != len(b.Q) || len(a.U) != len(b.U) {
		return false
	}
	for k := range a.Q {
		if math.Float64bits(a.Q[k]) != math.Float64bits(b.Q[k]) ||
			math.Float64bits(a.U[k]) != math.Float64bits(b.U[k]) {
			return false
		}
	}
	return true
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "default", "A-1", "x_y", "0", "camp-2026_B"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	long := make([]byte, MaxNameLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".", "..", "a/b", "a\\b", "-x", "_x", "a b", "é", "a.b", string(long), "a\x00b"} {
		if err := ValidateName(bad); !errors.Is(err, ErrBadName) {
			t.Errorf("ValidateName(%q) = %v, want ErrBadName", bad, err)
		}
	}
}

// TestFailedCreateLeavesNoCampaign: a Create whose namespace cannot be made
// durable fails, and leaves nothing behind — not in Names, and not on disk,
// where the next boot would list it as a live, unpublished campaign.
func TestFailedCreateLeavesNoCampaign(t *testing.T) {
	root := t.TempDir()
	cfg := Config{WALDir: root, Campaign: core.Config{GoldenCount: -1}}
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wal.FailFsyncAt(1)
	err = reg.Create("ghost")
	wal.FailFsyncAt(0)
	if !errors.Is(err, wal.ErrInjectedFsync) {
		t.Fatalf("Create over a failed fsync = %v, want the injected failure", err)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Fatalf("a failed Create listed %v", names)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, campaignsDir, "ghost")); !os.IsNotExist(err) {
		t.Fatalf("a failed Create left its namespace on disk: %v", err)
	}
	reg, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if list := reg.List(); len(list) != 0 {
		t.Fatalf("the reboot lists %+v after a failed Create", list)
	}
	if err := reg.Create("ghost"); err != nil {
		t.Fatalf("the name is not free after the failed Create: %v", err)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	root := t.TempDir()
	cfg := Config{WALDir: root, Campaign: core.Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 2, RerunEvery: -1}}
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := get(reg, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := create(reg, "bad/name"); err == nil {
		t.Error("Create with illegal name succeeded")
	}

	a, err := create(reg, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := create(reg, "alpha"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate Create = %v, want ErrExists", err)
	}
	// Names that differ only by case would share a directory on
	// case-insensitive filesystems, so they collide everywhere.
	if _, err := create(reg, "Alpha"); !errors.Is(err, ErrExists) {
		t.Errorf("case-colliding Create = %v, want ErrExists", err)
	}
	m := a.Domains().Size()
	if err := a.Publish(synthTasks(m, 8, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := create(reg, "beta"); err != nil {
		t.Fatal(err)
	}

	got, err := get(reg, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Submit("w0", 0, 0); err != nil {
		t.Fatal(err)
	}

	infos := reg.List()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("List = %+v, want alpha,beta", infos)
	}
	if !infos[0].Published || infos[0].Answers != 1 {
		t.Errorf("alpha info = %+v, want published with 1 answer", infos[0])
	}
	if infos[1].Published {
		t.Errorf("beta info = %+v, want unpublished", infos[1])
	}

	// Archive alpha: no longer servable, marker on disk.
	if err := reg.Archive("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := get(reg, "alpha"); !errors.Is(err, ErrArchived) {
		t.Errorf("Get(archived) = %v, want ErrArchived", err)
	}
	if err := reg.Archive("alpha"); !errors.Is(err, ErrArchived) {
		t.Errorf("double Archive = %v, want ErrArchived", err)
	}
	if _, err := create(reg, "alpha"); !errors.Is(err, ErrExists) {
		t.Errorf("Create over archived = %v, want ErrExists", err)
	}
	if infos := reg.List(); !infos[0].Archived || !infos[0].Published || infos[0].Answers != 1 {
		t.Errorf("archived info = %+v, want archived snapshot of serving state", infos[0])
	}
	if _, err := os.Stat(filepath.Join(root, campaignsDir, "alpha", archivedMarker)); err != nil {
		t.Errorf("archive marker missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, campaignsDir, "alpha", archivedMarker+".tmp")); !os.IsNotExist(err) {
		t.Errorf("the marker's staging file outlived the archive (stat error: %v)", err)
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := get(reg, "beta"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get after Close = %v, want ErrClosed", err)
	}

	// Reboot: beta comes back live (nothing published, nothing to replay),
	// alpha stays archived and is not replayed.
	reg2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	infos = reg2.List()
	if len(infos) != 2 {
		t.Fatalf("rebooted List = %+v, want 2 campaigns", infos)
	}
	if !infos[0].Archived || infos[0].RecoveredRecords != 0 {
		t.Errorf("alpha after reboot = %+v, want archived, 0 replayed", infos[0])
	}
	if infos[1].Archived {
		t.Errorf("beta after reboot = %+v, want live", infos[1])
	}
	if _, err := get(reg2, "alpha"); !errors.Is(err, ErrArchived) {
		t.Errorf("Get(archived) after reboot = %v, want ErrArchived", err)
	}
	if err := reg2.Close(); err != nil {
		t.Fatal(err)
	}

	// Under a cap, boot lists beta cold: its name still collides.
	capped := cfg
	capped.MaxLiveCampaigns = 1
	reg3, err := Open(capped)
	if err != nil {
		t.Fatal(err)
	}
	defer reg3.Close()
	if infos := reg3.List(); !infos[1].Hibernated {
		t.Fatalf("beta after a capped boot = %+v, want listed cold", infos[1])
	}
	for _, name := range []string{"BETA", "Alpha"} {
		if _, err := create(reg3, name); !errors.Is(err, ErrExists) {
			t.Errorf("Create(%q) beside a campaign listed at boot = %v, want ErrExists", name, err)
		}
	}
}

// TestRegistryRebootRecoversAllCampaigns publishes and serves several
// campaigns, closes the registry gracefully, and boots a second one over
// the same root: every campaign must come back published with its answers.
func TestRegistryRebootRecoversAllCampaigns(t *testing.T) {
	root := t.TempDir()
	cfg := Config{WALDir: root, Campaign: core.Config{GoldenCount: -1, HITSize: 4, AnswersPerTask: 3, RerunEvery: -1}}
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a1", "a2", "a3"}
	answers := map[string]int64{}
	for i, name := range names {
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(synthTasks(sys.Domains().Size(), 6+i, i)); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 2+i; w++ {
			if err := sys.Submit(fmt.Sprintf("w%d", w), w%3, 0); err != nil {
				t.Fatal(err)
			}
			answers[name]++
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	for _, info := range reg2.List() {
		if !info.Published {
			t.Errorf("campaign %s not published after reboot", info.Name)
		}
		if info.Answers != answers[info.Name] {
			t.Errorf("campaign %s recovered %d answers, want %d", info.Name, info.Answers, answers[info.Name])
		}
		if info.RecoveredRecords == 0 {
			t.Errorf("campaign %s replayed no records", info.Name)
		}
	}
}

// TestCrossCampaignWorkerCarryover is the paper's returning-worker story:
// a worker profiled on campaign A's golden tasks must be served real
// (non-golden) tasks on their FIRST request in campaign B, with their
// domain-quality vector carried over through the shared store — and the
// store must hold exactly one profiling merge for them.
func TestCrossCampaignWorkerCarryover(t *testing.T) {
	reg, err := Open(Config{Campaign: core.Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 4, RerunEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	a, err := create(reg, "a")
	if err != nil {
		t.Fatal(err)
	}
	m := a.Domains().Size()
	tasksA := synthTasks(m, 20, 0)
	if err := a.Publish(tasksA); err != nil {
		t.Fatal(err)
	}
	goldenAnswers := profile(t, a, "w")

	// The store now holds exactly the one profiling merge, bit for bit.
	want := truth.EstimateFromGolden(goldenTasksOf(a, tasksA), goldenAnswers, m)
	got, ok := reg.Store().Worker("w")
	if !ok {
		t.Fatal("profiling did not reach the shared store")
	}
	if !sameStats(got, want) {
		t.Fatal("store stats differ from the single profiling estimate")
	}

	b, err := create(reg, "b")
	if err != nil {
		t.Fatal(err)
	}
	tasksB := synthTasks(m, 20, 7)
	if err := b.Publish(tasksB); err != nil {
		t.Fatal(err)
	}
	goldenB := map[int]bool{}
	for _, id := range b.GoldenTasks() {
		goldenB[id] = true
	}
	if len(goldenB) == 0 {
		t.Fatal("campaign b selected no golden tasks")
	}

	// First request in b: real tasks immediately, no golden gauntlet.
	batch, err := b.Request("w", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) == 0 {
		t.Fatal("profiled worker got an empty first batch in campaign b")
	}
	for _, tk := range batch {
		if goldenB[tk.ID] {
			t.Fatalf("worker profiled in campaign a was served golden task %d in campaign b", tk.ID)
		}
	}
	// And the carried-over quality is the store's, not the default prior.
	q := b.WorkerQuality("w")
	for k := range q {
		if math.Float64bits(q[k]) != math.Float64bits(want.Q[k]) {
			t.Fatalf("campaign b sees quality[%d]=%v, store has %v", k, q[k], want.Q[k])
		}
	}

	// A fresh worker in b still runs the gauntlet — carryover is per
	// worker, not per campaign.
	fresh, err := b.Request("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range fresh {
		if !goldenB[tk.ID] {
			t.Fatalf("fresh worker served regular task %d before profiling", tk.ID)
		}
	}

	// Serving w real tasks in b must not touch their store entry: merges
	// happen at profiling (and Results), never on the serving path.
	for _, tk := range batch {
		if err := b.Submit("w", tk.ID, tk.Truth); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := reg.Store().Worker("w")
	if !sameStats(after, want) {
		t.Fatal("serving regular tasks in campaign b changed the worker's store stats")
	}
}

// TestConcurrentCampaignsMergeStoreOnce runs several campaigns and worker
// goroutines at once (run with -race): each worker is profiled in one home
// campaign, then serves everywhere. Every worker's shared-store entry must
// equal exactly their single profiling merge — no double counting, no lost
// updates, under full concurrency.
func TestConcurrentCampaignsMergeStoreOnce(t *testing.T) {
	reg, err := Open(Config{Campaign: core.Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 8, RerunEvery: 25}})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const nCampaigns, nWorkers = 4, 12
	names := make([]string, nCampaigns)
	allTasks := make(map[string][]*model.Task, nCampaigns)
	var m int
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		sys, err := create(reg, names[i])
		if err != nil {
			t.Fatal(err)
		}
		m = sys.Domains().Size()
		allTasks[names[i]] = synthTasks(m, 30, 3*i)
		if err := sys.Publish(allTasks[names[i]]); err != nil {
			t.Fatal(err)
		}
	}

	type profiled struct {
		home    string
		answers []model.Answer
	}
	results := make([]profiled, nWorkers)
	var wg sync.WaitGroup
	errs := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := fmt.Sprintf("w%d", i)
			home := names[i%nCampaigns]
			sys, err := get(reg, home)
			if err != nil {
				errs <- err
				return
			}
			// Golden gauntlet in the home campaign (perfect answers).
			goldenSet := map[int]bool{}
			for _, id := range sys.GoldenTasks() {
				goldenSet[id] = true
			}
			var answers []model.Answer
			for len(answers) < len(goldenSet) {
				got, err := sys.Request(w, 4)
				if err != nil {
					errs <- err
					return
				}
				for _, tk := range got {
					if !goldenSet[tk.ID] {
						errs <- fmt.Errorf("worker %s: regular task %d before profiling", w, tk.ID)
						return
					}
					if err := sys.Submit(w, tk.ID, tk.Truth); err != nil {
						errs <- err
						return
					}
					answers = append(answers, model.Answer{Worker: w, Task: tk.ID, Choice: tk.Truth})
				}
			}
			results[i] = profiled{home: home, answers: answers}
			// Then serve one batch in EVERY campaign, concurrently with the
			// other workers' gauntlets and serving.
			for _, name := range names {
				other, err := get(reg, name)
				if err != nil {
					errs <- err
					return
				}
				got, err := other.Request(w, 3)
				if err != nil {
					errs <- err
					return
				}
				for _, tk := range got {
					if err := other.Submit(w, tk.ID, tk.Truth); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := 0; i < nWorkers; i++ {
		w := fmt.Sprintf("w%d", i)
		sys, err := get(reg, results[i].home)
		if err != nil {
			t.Fatal(err)
		}
		want := truth.EstimateFromGolden(goldenTasksOf(sys, allTasks[results[i].home]), results[i].answers, m)
		got, ok := reg.Store().Worker(w)
		if !ok {
			t.Fatalf("worker %s missing from the shared store", w)
		}
		if !sameStats(got, want) {
			t.Fatalf("worker %s: store stats differ from their single profiling merge (double-merge or lost update)", w)
		}
	}
}

// TestMemoryOnlyRegistry keeps everything in RAM: campaigns serve, the
// shared store still carries workers across campaigns, nothing touches
// disk.
func TestMemoryOnlyRegistry(t *testing.T) {
	reg, err := Open(Config{Campaign: core.Config{GoldenCount: 4, HITSize: 4, AnswersPerTask: 4, RerunEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := create(reg, "a")
	if err != nil {
		t.Fatal(err)
	}
	m := a.Domains().Size()
	if err := a.Publish(synthTasks(m, 16, 0)); err != nil {
		t.Fatal(err)
	}
	profile(t, a, "w")
	b, err := create(reg, "b")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(synthTasks(m, 16, 5)); err != nil {
		t.Fatal(err)
	}
	goldenB := map[int]bool{}
	for _, id := range b.GoldenTasks() {
		goldenB[id] = true
	}
	batch, err := b.Request("w", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range batch {
		if goldenB[tk.ID] {
			t.Fatal("memory-only registry lost the cross-campaign profile")
		}
	}
	if err := reg.Archive("a"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBootPreservesEveryCampaign pins the concurrent recoverAll:
// many campaigns booted in parallel must each recover their own state
// exactly (fingerprints compared against the pre-shutdown systems) and the
// boot must remain a pure function of each campaign's log plus the shared
// store — the safety argument for replaying concurrently at all. Run under
// -race in CI, this is also the data-race gate for the parallel boot path.
func TestConcurrentBootPreservesEveryCampaign(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(Config{WALDir: root, Campaign: core.Config{GoldenCount: 3, HITSize: 4, AnswersPerTask: 3, RerunEvery: 15}})
	if err != nil {
		t.Fatal(err)
	}
	const nCampaigns = 6
	want := make(map[string]string, nCampaigns)
	answers := make(map[string]int64, nCampaigns)
	for c := 0; c < nCampaigns; c++ {
		name := fmt.Sprintf("c%d", c)
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(synthTasks(26, 20, 3*c)); err != nil {
			t.Fatal(err)
		}
		// One distinct worker per campaign: the shared store carries
		// profiles across campaigns, and this test wants each campaign to
		// exercise its own golden gauntlet.
		w := fmt.Sprintf("boot-w%d", c)
		profile(t, sys, w)
		for i := 0; i < 8; i++ {
			got, err := sys.Request(w, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, tk := range got {
				if err := sys.Submit(w, tk.ID, tk.Truth); err != nil {
					t.Fatal(err)
				}
			}
		}
		answers[name] = sys.Stats().Answers
	}
	// Fingerprints are captured only after EVERY campaign has been driven:
	// the comparator includes the shared store, which keeps absorbing
	// profiling merges as later campaigns run — a snapshot taken mid-way
	// would differ from the recovered state for store reasons, not
	// recovery reasons.
	for name := range answers {
		sys, err := get(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = sys.Fingerprint()
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{WALDir: root, Campaign: core.Config{GoldenCount: 3, HITSize: 4, AnswersPerTask: 3, RerunEvery: 15}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for name, fp := range want {
		sys, err := get(re, name)
		if err != nil {
			t.Fatalf("campaign %s: %v", name, err)
		}
		if got := sys.Stats().Answers; got != answers[name] {
			t.Fatalf("campaign %s: recovered %d answers, want %d", name, got, answers[name])
		}
		if got := sys.Fingerprint(); got != fp {
			t.Fatalf("campaign %s: concurrent boot recovered a different state", name)
		}
	}
}

// TestConcurrentPublishesMatchSerial: four campaigns of one registry
// publish at once — each publish fans its DVE out over every core — and
// each ends exactly as it does when the four publish one after another:
// fingerprint, golden set, index and engine epochs, and logged record. Run
// it under -race.
func TestConcurrentPublishesMatchSerial(t *testing.T) {
	cfg := core.Config{GoldenCount: 5, HITSize: 4, AnswersPerTask: 3, RerunEvery: -1, LeaseTTL: time.Minute}
	names := []string{"c0", "c1", "c2", "c3"}
	batch := func(c int) []*model.Task {
		src := dataset.All(1)[c].Tasks
		tasks := make([]*model.Task, 250+40*c)
		for i := range tasks {
			tk := *src[i%len(src)]
			tk.ID = i
			tasks[i] = &tk
		}
		return tasks
	}
	run := func(concurrent bool) []string {
		root := t.TempDir()
		reg, err := Open(Config{WALDir: root, Campaign: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		errs := make([]error, len(names))
		var wg sync.WaitGroup
		for c, name := range names {
			if err := reg.Create(name); err != nil {
				t.Fatal(err)
			}
			tasks := batch(c)
			publish := func() {
				defer wg.Done()
				errs[c] = reg.Do(name, func(s *core.System) error { return s.Publish(tasks) })
			}
			wg.Add(1)
			if concurrent {
				go publish()
			} else {
				publish()
			}
		}
		wg.Wait()
		out := make([]string, len(names))
		for c, name := range names {
			if errs[c] != nil {
				t.Fatalf("%s: %v", name, errs[c])
			}
			sys, err := get(reg, name)
			if err != nil {
				t.Fatal(err)
			}
			out[c] = fmt.Sprintf("%s|%v|%d|%d", sys.Fingerprint(), sys.GoldenTasks(), sys.Stats().IndexEpoch, sys.Stats().SnapshotEpoch)
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
		for c, name := range names {
			out[c] += fmt.Sprintf("|%x", crashtest.ReadStream(t, filepath.Join(root, campaignsDir, name))[0].Blob)
		}
		return out
	}
	serial, concurrent := run(false), run(true)
	for c, name := range names {
		if concurrent[c] != serial[c] {
			t.Errorf("%s: publishing beside three other campaigns differs from publishing alone", name)
		}
	}
}
