package docs

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/store"
	"docs/internal/wal"
)

func exampleTasks() []Task {
	return []Task{
		{ID: 0, Text: "Does Michael Jordan win more NBA championships than Kobe Bryant?",
			Choices: []string{"yes", "no"}, GoldenTruth: 0},
		{ID: 1, Text: "Which food contains more calories, Chocolate or Honey?",
			Choices: []string{"Chocolate", "Honey"}, GoldenTruth: NoTruth},
		{ID: 2, Text: "Compare the height of Mount Everest and K2.",
			Choices: []string{"Everest", "K2"}, GoldenTruth: NoTruth},
	}
}

func TestSystemLifecycle(t *testing.T) {
	sys, err := New(Config{GoldenCount: -1, HITSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(exampleTasks()); err != nil {
		t.Fatal(err)
	}
	if n := len(sys.DomainNames()); n != 26 {
		t.Errorf("DomainNames = %d, want 26", n)
	}

	batch, err := sys.Request("alice", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("requested 2, got %d", len(batch))
	}
	for _, tk := range batch {
		if err := sys.Submit("alice", tk.ID, 0); err != nil {
			t.Fatal(err)
		}
	}
	cur := sys.CurrentResult(batch[0].ID)
	if cur.Choice != 0 {
		t.Errorf("current result = %d after unanimous 0", cur.Choice)
	}
	if q := sys.WorkerQuality("alice"); len(q) != 26 {
		t.Errorf("WorkerQuality size %d", len(q))
	}

	results, err := sys.Results()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Errorf("Results = %d tasks, want 3", len(results))
	}
}

func TestPublishValidation(t *testing.T) {
	sys, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish([]Task{{ID: 0, Text: "x", Choices: []string{"only"}, GoldenTruth: NoTruth}}); err == nil {
		t.Error("single-choice task accepted")
	}
	if err := sys.Publish([]Task{{ID: 0, Text: "x", Choices: []string{"a", "b"}, GoldenTruth: 7}}); err == nil {
		t.Error("out-of-range golden truth accepted")
	}
	// CheckPublication is the same verdict without a System.
	valid := Task{ID: 0, Text: "x", Choices: []string{"a", "b"}, GoldenTruth: 1}
	for name, batch := range map[string][]Task{
		"single choice":      {{ID: 0, Text: "x", Choices: []string{"only"}, GoldenTruth: NoTruth}},
		"truth out of range": {{ID: 0, Text: "x", Choices: []string{"a", "b"}, GoldenTruth: 7}},
		"duplicate ID":       {valid, valid},
	} {
		_, verr := CheckPublication(batch)
		perr := sys.Publish(batch)
		if verr == nil || perr == nil || verr.Error() != perr.Error() {
			t.Errorf("%s: CheckPublication says %v, Publish says %v", name, verr, perr)
		}
	}
	checked, err := CheckPublication([]Task{valid})
	if err != nil {
		t.Fatalf("CheckPublication rejected a valid batch: %v", err)
	}
	if sys.Published() {
		t.Error("a rejected batch published")
	}
	if err := sys.PublishChecked(checked); err != nil || !sys.Published() {
		t.Errorf("PublishChecked of a checked batch: %v, published %v", err, sys.Published())
	}
}

// TestPublishRechecksTheTasksItLogs: a Publication reads the caller's tasks
// until it is published, so a task changed after CheckPublication — cut to
// one choice, or given an earlier task's ID — is refused by PublishChecked
// as a wake would refuse its record, and the campaign stays unpublished.
func TestPublishRechecksTheTasksItLogs(t *testing.T) {
	for name, spoil := range map[string]func(tasks []Task){
		"one choice":   func(tasks []Task) { tasks[1].Choices = tasks[1].Choices[:1] },
		"repeated ID":  func(tasks []Task) { tasks[2].ID = tasks[0].ID },
		"truth past ℓ": func(tasks []Task) { tasks[1].GoldenTruth = 5 },
	} {
		sys, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		tasks := []Task{
			{ID: 0, Text: "a", Choices: []string{"x", "y"}, GoldenTruth: NoTruth},
			{ID: 1, Text: "b", Choices: []string{"x", "y"}, GoldenTruth: 0},
			{ID: 2, Text: "c", Choices: []string{"x", "y"}, GoldenTruth: NoTruth},
		}
		checked, err := CheckPublication(tasks)
		if err != nil {
			t.Fatal(err)
		}
		spoil(tasks)
		if err := sys.PublishChecked(checked); err == nil || sys.Published() {
			t.Errorf("%s after the check: PublishChecked says %v, published %v", name, err, sys.Published())
		}
		sys.Close()
	}
}

// TestPublicationLaidOutAsAWake: a publish lays its tasks out as a wake
// does — as the task table the publication record's own bytes make, built
// by the one decoder both run — so a published campaign and the same
// campaign woken from its log serve every task byte for byte alike and
// fingerprint alike, at 600 tasks and at 6,000. Nothing is converted on
// the way: checking a publication of ascending IDs allocates at most 3
// times at either size (the IDs its duplicate check reads, the batch and
// the reader of the caller's tasks), and the campaign aliases none of the
// caller's strings.
func TestPublicationLaidOutAsAWake(t *testing.T) {
	batch := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{ID: i, Text: "t", Choices: []string{"a", "b", "c"}, GoldenTruth: NoTruth}
		}
		return tasks
	}
	for _, n := range []int{600, 6000} {
		tasks := batch(n)
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection's own allocations would count
			if got := testing.AllocsPerRun(5, func() { _, _ = CheckPublication(tasks) }); got > 3 {
				t.Errorf("checking %d tasks allocates %.0f times, want at most 3", n, got)
			}
		}()
		reg, err := OpenRegistry(Config{GoldenCount: -1, WALDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := reg.Create("laid-out")
		if err == nil {
			err = sys.Publish(tasks)
		}
		if err != nil {
			t.Fatal(err)
		}
		tasks[0].Text, tasks[1].Choices[0] = "changed", "changed"
		// Every task, as the campaign serves it, and its fingerprint.
		state := func() (served []Task, fp string) {
			err := sys.do(func(c *core.System) (err error) {
				fp = c.Fingerprint()
				return nil
			})
			if err == nil {
				served, err = sys.Request("w", n)
			}
			if err != nil || len(served) != n {
				t.Fatalf("%d tasks: served %d (%v)", n, len(served), err)
			}
			return served, fp
		}
		published, publishedFP := state()
		for _, tk := range published {
			if tk.Text != "t" || !reflect.DeepEqual(tk.Choices, []string{"a", "b", "c"}) {
				t.Fatalf("%d tasks: served task %d as %q %q, want it as published", n, tk.ID, tk.Text, tk.Choices)
			}
		}
		if err := reg.Hibernate("laid-out"); err != nil {
			t.Fatal(err)
		}
		if woken, wokenFP := state(); !reflect.DeepEqual(woken, published) || wokenFP != publishedFP {
			t.Errorf("%d tasks: the woken campaign serves or fingerprints otherwise than the published one", n)
		}
		if err := reg.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGoldenFlow(t *testing.T) {
	tasks := make([]Task, 0, 30)
	for i := 0; i < 30; i++ {
		tasks = append(tasks, Task{
			ID:   i,
			Text: "Which food contains more calories, Chocolate or Honey?",
			Choices: []string{
				"Chocolate", "Honey",
			},
			GoldenTruth: i % 2,
		})
	}
	sys, err := New(Config{GoldenCount: 5, HITSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	golden := sys.GoldenTaskIDs()
	if len(golden) != 5 {
		t.Fatalf("golden = %d, want 5", len(golden))
	}
	batch, err := sys.Request("bob", 3)
	if err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range golden {
		goldenSet[id] = true
	}
	for _, tk := range batch {
		if !goldenSet[tk.ID] {
			t.Errorf("new worker served non-golden task %d first", tk.ID)
		}
	}
}

func TestInferTruthOffline(t *testing.T) {
	tasks := exampleTasks()
	var answers []Answer
	// Three workers, two reliable and one contrarian.
	for _, tk := range tasks {
		answers = append(answers,
			Answer{Worker: "good1", TaskID: tk.ID, Choice: 0},
			Answer{Worker: "good2", TaskID: tk.ID, Choice: 0},
			Answer{Worker: "bad", TaskID: tk.ID, Choice: 1},
		)
	}
	results, err := InferTruth(tasks, answers)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(tasks) {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Choice != 0 {
			t.Errorf("task %d inferred %d, want 0", r.TaskID, r.Choice)
		}
		if len(r.Confidence) != 2 {
			t.Errorf("task %d confidence size %d", r.TaskID, len(r.Confidence))
		}
	}
}

func TestInferTruthValidation(t *testing.T) {
	if _, err := InferTruth([]Task{{ID: 0, Text: "x", Choices: []string{"a"}, GoldenTruth: NoTruth}}, nil); err == nil {
		t.Error("invalid task accepted")
	}
	tasks := exampleTasks()
	bad := []Answer{{Worker: "w", TaskID: 0, Choice: 99}}
	if _, err := InferTruth(tasks, bad); err == nil {
		t.Error("out-of-range answer accepted")
	}
}

// TestResultsConfidenceIsCallersCopy: a Confidence slice belongs to the
// caller. Rewriting one in place — or appending to it — must reach neither a
// neighbouring result nor anything a later call returns.
func TestResultsConfidenceIsCallersCopy(t *testing.T) {
	sys, err := New(Config{GoldenCount: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(exampleTasks()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit("alice", 1, 0); err != nil { // tasks 0 and 2 stay unanswered
		t.Fatal(err)
	}
	vandalize := func(results []Result) [][]float64 {
		kept := make([][]float64, len(results))
		for i, r := range results {
			kept[i] = append([]float64(nil), r.Confidence...)
		}
		c := results[0].Confidence
		for j := range c {
			c[j] = -1
		}
		_ = append(c, -1)
		for i, r := range results[1:] {
			for j, x := range r.Confidence {
				if x != kept[i+1][j] {
					t.Errorf("task %d confidence[%d] = %g after writing task %d's, was %g", r.TaskID, j, x, results[0].TaskID, kept[i+1][j])
				}
			}
		}
		return kept
	}
	first, err := sys.Results()
	if err != nil {
		t.Fatal(err)
	}
	want := vandalize(first)
	second, err := sys.Results()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		for j, x := range r.Confidence {
			if x != want[i][j] {
				t.Errorf("second Results: task %d confidence[%d] = %g, want %g", r.TaskID, j, x, want[i][j])
			}
		}
	}

	offline, err := InferTruth(exampleTasks(), []Answer{{Worker: "alice", TaskID: 1, Choice: 0}})
	if err != nil {
		t.Fatal(err)
	}
	vandalize(offline)
}

// fullConfig has every field of Config non-zero.
func fullConfig(dir string) Config {
	return Config{
		GoldenCount: 2, HITSize: 3, AnswersPerTask: 1, RerunEvery: 2,
		WALSyncEveryBatch: true, LeaseTTL: time.Minute,
		WALDir: dir, StorePath: filepath.Join(dir, "workers"),
		MaxLiveCampaigns: 4, HibernateAfter: time.Hour,
	}
}

// TestConfigMapping holds Config to one mapping: every field is either
// consumed by Config.campaign — the method New and OpenRegistry both build
// their core.Config from — or is one of the four that say where campaigns
// live and how many stay resident. A field added to Config and forwarded on
// neither path, or by hand on one, fails here.
func TestConfigMapping(t *testing.T) {
	placement := map[string]bool{"StorePath": true, "WALDir": true, "MaxLiveCampaigns": true, "HibernateAfter": true}
	full := reflect.ValueOf(fullConfig("dir"))
	for i := 0; i < full.NumField(); i++ {
		name := full.Type().Field(i).Name
		if full.Field(i).IsZero() {
			t.Fatalf("fullConfig leaves %s zero", name)
		}
		var only Config
		reflect.ValueOf(&only).Elem().Field(i).Set(full.Field(i))
		consumed := !reflect.DeepEqual(only.campaign(), Config{}.campaign())
		if consumed == placement[name] {
			t.Errorf("Config.%s: consumed by campaign() = %v, listed as placement = %v; want exactly one", name, consumed, placement[name])
		}
		delete(placement, name)
	}
	for name := range placement {
		t.Errorf("placement list names %s, which Config does not have", name)
	}
	want := core.Config{GoldenCount: 2, HITSize: 3, AnswersPerTask: 1, RerunEvery: 2,
		WALSync: wal.SyncEveryBatch, LeaseTTL: time.Minute}
	if got := fullConfig("dir").campaign(); !reflect.DeepEqual(got, want) {
		t.Errorf("campaign() = %+v, want %+v", got, want)
	}
}

// TestNewAndRegistryShareTuning drives a standalone System and a registry
// campaign built from the same all-fields-set Config through one script and
// requires the same observable tuning from both.
func TestNewAndRegistryShareTuning(t *testing.T) {
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{ID: i, Text: "Which food contains more calories, Chocolate or Honey?",
			Choices: []string{"Chocolate", "Honey"}, GoldenTruth: NoTruth}
		if i < 4 {
			tasks[i].GoldenTruth = 0
		}
	}
	type tuning struct {
		golden, hit  int
		leases       int64
		openAfterTwo int
		rerun        bool
	}
	observe := func(sys *System) tuning {
		t.Helper()
		if err := sys.Publish(tasks); err != nil {
			t.Fatal(err)
		}
		var got tuning
		got.golden = len(sys.GoldenTaskIDs())
		serve := func() []Task {
			t.Helper()
			batch, err := sys.Request("w", 0)
			if err != nil {
				t.Fatal(err)
			}
			return batch
		}
		for _, tk := range serve() { // the golden gauntlet
			if err := sys.Submit("w", tk.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		batch := serve()
		got.hit = len(batch)
		got.leases = sys.Stats().LeasesActive
		for _, tk := range batch[:2] {
			if err := sys.Submit("w", tk.ID, 0); err != nil {
				t.Fatal(err)
			}
		}
		got.openAfterTwo = sys.Stats().OpenTasks
		// The rerun runs on the background worker.
		deadline := time.Now().Add(10 * time.Second)
		for !got.rerun && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			got.rerun = sys.Stats().RerunsCompleted > 0
		}
		return got
	}

	alone, err := New(fullConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	reg, err := OpenRegistry(fullConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	hosted, err := reg.Create("hosted")
	if err != nil {
		t.Fatal(err)
	}
	want := tuning{golden: 2, hit: 3, leases: 3, openAfterTwo: 4, rerun: true}
	if got := observe(alone); got != want {
		t.Errorf("New: tuning = %+v, want %+v", got, want)
	}
	if got := observe(hosted); got != want {
		t.Errorf("OpenRegistry+Create: tuning = %+v, want %+v", got, want)
	}
}

// sessionRounds answers two rounds of exampleTasks on sys, each closed by a
// Results call.
func sessionRounds(t *testing.T, sys *System) {
	t.Helper()
	for _, round := range [][]Answer{
		{{Worker: "alice", TaskID: 0, Choice: 0}, {Worker: "alice", TaskID: 1, Choice: 1}},
		{{Worker: "alice", TaskID: 2, Choice: 0}, {Worker: "bob", TaskID: 0, Choice: 1}, {Worker: "bob", TaskID: 2, Choice: 0}},
	} {
		for _, a := range round {
			if err := sys.Submit(a.Worker, a.TaskID, a.Choice); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Results(); err != nil {
			t.Fatal(err)
		}
	}
}

// storeWeights reads every worker's held weight from the store log at path.
func storeWeights(t *testing.T, path string) map[string][]float64 {
	t.Helper()
	st, err := store.Open(path, 26)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := map[string][]float64{}
	for _, w := range st.Workers() {
		stats, _ := st.Worker(w)
		out[w] = stats.U
	}
	return out
}

// sameWeights fails unless got holds alice and bob at factor times want's
// weights, and want holds some weight at all.
func sameWeights(t *testing.T, what string, got, want map[string][]float64, factor float64) {
	t.Helper()
	if len(want) != 2 || len(got) != 2 {
		t.Fatalf("stores hold workers %v and %v, want alice and bob", want, got)
	}
	total := 0.0
	for w, u := range want {
		for k := range u {
			if got[w][k] != factor*u[k] {
				t.Fatalf("%s: %s weight[%d] = %g, want %g times %g", what, w, k, got[w][k], factor, u[k])
			}
			total += u[k]
		}
	}
	if total == 0 {
		t.Fatal("the campaign left no weight in the store")
	}
}

// TestCampaignsNamedApartKeepSeparateSessions: two campaigns named apart
// over one StorePath — a campaign's name is its session scope — both leave
// their session in the store, and a repeat call after more answers replaces
// only the caller's own. Both campaigns run the same traffic, so the held
// weight is exactly twice what one campaign leaves in a store of its own.
func TestCampaignsNamedApartKeepSeparateSessions(t *testing.T) {
	campaign := func(storePath, name string) {
		t.Helper()
		reg, err := OpenRegistry(Config{GoldenCount: -1, StorePath: storePath})
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		sys, err := reg.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(exampleTasks()); err != nil {
			t.Fatal(err)
		}
		sessionRounds(t, sys)
	}
	alone := filepath.Join(t.TempDir(), "alone")
	campaign(alone, "a")
	shared := filepath.Join(t.TempDir(), "shared")
	campaign(shared, "a")
	campaign(shared, "b")
	sameWeights(t, "the shared store", storeWeights(t, shared), storeWeights(t, alone), 2)
}

// TestRestartReplacesItsOwnSession: a durable System is one campaign under
// one name, across restarts. Reopened over the same WALDir, its Results
// replaces the session it left before the restart, so the store holds each
// worker's weight once, not once per process.
func TestRestartReplacesItsOwnSession(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{GoldenCount: -1, WALDir: dir, StorePath: filepath.Join(dir, "workers")}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(exampleTasks()); err != nil {
		t.Fatal(err)
	}
	sessionRounds(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	once := storeWeights(t, cfg.StorePath)

	sys, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Published() || sys.Recovery().Records == 0 {
		t.Fatalf("the reopened System recovered %+v, want its campaign", sys.Recovery())
	}
	if _, err := sys.Results(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sameWeights(t, "after a restart", storeWeights(t, cfg.StorePath), once, 1)
}

// TestNewOpensItsCampaignOnly: New's WALDir is a registry root holding one
// campaign, "default". New refuses a root holding any other campaign,
// pointing at OpenRegistry, and the layout older versions of New wrote — a
// campaign's segments directly in WALDir — with an error naming a segment.
// Neither refusal changes a byte on disk.
func TestNewOpensItsCampaignOnly(t *testing.T) {
	tree := func(dir string) map[string]string {
		t.Helper()
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			files[path] = string(data)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	refused := func(what, dir, want string) {
		t.Helper()
		before := tree(dir)
		sys, err := New(Config{WALDir: dir})
		if err == nil {
			sys.Close()
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: New error %v, want one naming %s", what, err, want)
		}
		if !reflect.DeepEqual(tree(dir), before) {
			t.Errorf("%s: the refused root changed", what)
		}
	}

	root := t.TempDir()
	reg, err := OpenRegistry(Config{WALDir: root})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create("other"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	refused("a registry root", root, "OpenRegistry")

	dir := t.TempDir()
	sys, err := New(Config{GoldenCount: -1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(exampleTasks()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Submit("alice", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	old := t.TempDir()
	segments, err := os.ReadDir(filepath.Join(dir, "campaigns", defaultCampaign))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range segments {
		data, err := os.ReadFile(filepath.Join(dir, "campaigns", defaultCampaign, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(old, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	refused("the older layout", old, ".wal")
}
