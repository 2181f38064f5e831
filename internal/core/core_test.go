package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/truth"
)

// newSystem builds a campaign from cfg: named "test" and over a memory-only
// store of its own unless cfg names a scope or brings a store.
func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.ProfileScope == "" {
		cfg.ProfileScope = "test"
	}
	if cfg.Store == nil {
		k := cfg.KB
		if k == nil {
			k = kb.MustDefault()
		}
		st, err := store.Open("", k.Domains().Size())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPublishRunsDVE(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1})
	tasks := []*model.Task{
		{ID: 0, Text: "Does Michael Jordan win more NBA championships than Kobe Bryant?",
			Choices: []string{"yes", "no"}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
		{ID: 1, Text: "Which food contains more calories, Chocolate or Honey?",
			Choices: []string{"Chocolate", "Honey"}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	tasks = publishedTasks(s)
	sports, _ := s.Domains().Index("Sports")
	food, _ := s.Domains().Index("Food")
	if tasks[0].Domain.Top() != sports {
		t.Errorf("task 0 top domain = %s, want Sports", s.Domains().Name(tasks[0].Domain.Top()))
	}
	if tasks[1].Domain.Top() != food {
		t.Errorf("task 1 top domain = %s, want Food", s.Domains().Name(tasks[1].Domain.Top()))
	}
}

func TestPublishErrors(t *testing.T) {
	s := newSystem(t, Config{})
	dup := []*model.Task{
		{ID: 0, Text: "a b", Choices: []string{"x", "y"}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
		{ID: 0, Text: "c d", Choices: []string{"x", "y"}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	if err := s.Publish(dup); err == nil {
		t.Error("duplicate IDs accepted")
	}
	s2 := newSystem(t, Config{})
	ok := []*model.Task{{ID: 0, Text: "a", Choices: []string{"x", "y"}, Truth: model.NoTruth, TrueDomain: model.NoTruth}}
	if err := s2.Publish(ok); err != nil {
		t.Fatal(err)
	}
	if err := s2.Publish(ok); err == nil {
		t.Error("double publish accepted")
	}
}

func TestGoldenFirstForNewWorkers(t *testing.T) {
	ds := dataset.Item(1)
	s := newSystem(t, Config{GoldenCount: 8, HITSize: 5})
	if err := s.Publish(ds.Tasks[:100]); err != nil {
		t.Fatal(err)
	}
	goldenIDs := s.GoldenTasks()
	if len(goldenIDs) != 8 {
		t.Fatalf("selected %d golden tasks, want 8", len(goldenIDs))
	}
	goldenSet := map[int]bool{}
	for _, id := range goldenIDs {
		goldenSet[id] = true
	}

	// A fresh worker must receive only golden tasks until all are done.
	served := 0
	for served < len(goldenIDs) {
		got, err := s.Request("newbie", 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("no tasks served while golden remain")
		}
		for _, tk := range got {
			if !goldenSet[tk.ID] {
				t.Fatalf("unprofiled worker served non-golden task %d", tk.ID)
			}
			if err := s.Submit("newbie", tk.ID, tk.Truth); err != nil {
				t.Fatal(err)
			}
			served++
		}
	}
	// Now the worker is profiled (perfect golden record → high quality) and
	// receives regular tasks.
	got, err := s.Request("newbie", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("profiled worker got no tasks")
	}
	for _, tk := range got {
		if goldenSet[tk.ID] {
			t.Errorf("profiled worker served golden task %d", tk.ID)
		}
	}
	q := s.WorkerQuality("newbie")
	sports, _ := s.Domains().Index("Sports")
	if q[sports] < 0.8 {
		t.Errorf("perfect golden record gave Sports quality %.2f", q[sports])
	}
}

// TestRequestsMintNoHandle: a worker's handle, and their entry in the
// serving-state slab, are minted only where the log records them. 1,000
// requests from 1,000 IDs that never answer — served the golden gauntlet,
// or regular tasks when there is none — leave the truth engine's names and
// the slab as they found them.
func TestRequestsMintNoHandle(t *testing.T) {
	ds := dataset.Item(1)
	for _, golden := range []int{8, -1} {
		s := newSystem(t, Config{GoldenCount: golden, HITSize: 5})
		if err := s.Publish(ds.Tasks[:100]); err != nil {
			t.Fatal(err)
		}
		// One worker the log records: the engine holds their name, and
		// with a gauntlet the slab their state.
		served, err := s.Request("answerer", 5)
		if err != nil || len(served) == 0 {
			t.Fatalf("golden %d: served %d tasks, %v", golden, len(served), err)
		}
		if err := s.Submit("answerer", served[0].ID, 0); err != nil {
			t.Fatal(err)
		}
		names, slab := len(s.inc.Names()), len(*s.workers.Load())
		for i := range 1000 {
			if got, err := s.Request(fmt.Sprintf("stranger-%d", i), 5); err != nil || len(got) == 0 {
				t.Fatalf("golden %d: stranger %d served %d tasks, %v", golden, i, len(got), err)
			}
		}
		if got, gotSlab := len(s.inc.Names()), len(*s.workers.Load()); got != names || gotSlab != slab {
			t.Errorf("golden %d: 1,000 requests that answered nothing took the engine from %d to %d names and the slab from %d to %d entries",
				golden, names, got, slab, gotSlab)
		}
		s.Close()
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1})
	tasks := []*model.Task{{ID: 0, Text: "Kobe Bryant", Choices: []string{"x", "y"}, Truth: model.NoTruth, TrueDomain: model.NoTruth}}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("", 0, 0); err == nil {
		t.Error("empty worker accepted")
	}
	if err := s.Submit("w", 99, 0); err == nil {
		t.Error("unknown task accepted")
	}
	if err := s.Submit("w", 0, 5); err == nil {
		t.Error("out-of-range choice accepted")
	}
	if err := s.Submit("w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("w", 0, 0); err == nil {
		t.Error("duplicate answer accepted")
	}
	if _, err := s.Request("", 5); err == nil {
		t.Error("empty worker request accepted")
	}
}

// TestEndToEndCampaign runs the full Figure 1 loop on a slice of the Item
// dataset with a simulated crowd and verifies the final accuracy beats the
// trivial bound.
func TestEndToEndCampaign(t *testing.T) {
	ds := dataset.Item(3)
	tasks := ds.Tasks[:120]
	s := newSystem(t, Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50})
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	m := kb.MustDefault().Domains().Size()
	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers:      24,
		M:               m,
		RelevantDomains: ds.YahooIndex,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := pop.Rand()
	for hit := 0; hit < 400; hit++ {
		w := pop.Arrival()
		got, err := s.Request(w.ID, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break // campaign saturated
		}
		for _, tk := range s.Tasks(got) {
			if err := s.Submit(w.ID, tk.ID, w.Answer(&tk, r)); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := s.Results()
	if err != nil {
		t.Fatal(err)
	}
	inferTasks := s.InferTasks()
	acc, n := truth.Accuracy(inferTasks, res.Truth)
	if n != len(inferTasks) {
		t.Fatalf("evaluated %d of %d tasks", n, len(inferTasks))
	}
	if acc < 0.8 {
		t.Errorf("end-to-end accuracy %.3f, want >= 0.8", acc)
	}
}

func TestStorePersistsAcrossCampaigns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	m := kb.MustDefault().Domains().Size()

	st, err := store.Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Item(5)
	s := newSystem(t, Config{Store: st, GoldenCount: 6, AnswersPerTask: 3})
	if err := s.Publish(ds.Tasks[:40]); err != nil {
		t.Fatal(err)
	}
	// One worker completes golden tasks perfectly.
	for _, id := range s.GoldenTasks() {
		tk := findTask(ds.Tasks, id)
		if err := s.Submit("veteran", id, tk.Truth); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Results(); err != nil {
		t.Fatal(err)
	}

	// Second campaign with a fresh system over the same store: the veteran
	// is recognized and skips golden profiling.
	st2, err := store.Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Worker("veteran"); !ok {
		t.Fatal("veteran missing from persisted store")
	}
	s2 := newSystem(t, Config{Store: st2, GoldenCount: 6})
	if err := s2.Publish(dataset.Item(6).Tasks[:40]); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Request("veteran", 3)
	if err != nil {
		t.Fatal(err)
	}
	goldenSet := map[int]bool{}
	for _, id := range s2.GoldenTasks() {
		goldenSet[id] = true
	}
	for _, tk := range got {
		if goldenSet[tk.ID] {
			t.Errorf("returning worker served golden task %d", tk.ID)
		}
	}
}

func findTask(tasks []*model.Task, id int) *model.Task {
	for _, t := range tasks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

func TestAnswersPerTaskCap(t *testing.T) {
	s := newSystem(t, Config{GoldenCount: -1, AnswersPerTask: 2, HITSize: 10})
	tasks := []*model.Task{
		{ID: 0, Text: "Kobe Bryant height", Choices: []string{"x", "y"}, Truth: model.NoTruth, TrueDomain: model.NoTruth},
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"w1", "w2"} {
		if err := s.Submit(w, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Request("w3", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("capped task still assigned: %v", got)
	}
}
