package crowd

import (
	"math"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

func testConfig(n int, seed uint64) Config {
	return Config{
		NumWorkers:      n,
		M:               4,
		RelevantDomains: []int{0, 1},
		Seed:            seed,
	}
}

func TestNewPopulation(t *testing.T) {
	pop, err := NewPopulation(testConfig(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Workers) != 20 {
		t.Fatalf("population size %d, want 20", len(pop.Workers))
	}
	ids := make(map[string]bool)
	for _, w := range pop.Workers {
		if ids[w.ID] {
			t.Fatalf("duplicate worker ID %s", w.ID)
		}
		ids[w.ID] = true
		if err := w.TrueQ.Validate(4); err != nil {
			t.Fatalf("worker %s: %v", w.ID, err)
		}
		// Every worker must be expert on at least one relevant domain.
		if w.TrueQ[0] < 0.85 && w.TrueQ[1] < 0.85 {
			t.Errorf("worker %s has no expert domain: %v", w.ID, w.TrueQ)
		}
	}
}

func TestNewPopulationErrors(t *testing.T) {
	if _, err := NewPopulation(Config{NumWorkers: 0, M: 3}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewPopulation(Config{NumWorkers: 5, M: 0}); err == nil {
		t.Error("zero domains accepted")
	}
	if _, err := NewPopulation(Config{NumWorkers: 5, M: 3, RelevantDomains: []int{7}}); err == nil {
		t.Error("out-of-range relevant domain accepted")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a, _ := NewPopulation(testConfig(10, 5))
	b, _ := NewPopulation(testConfig(10, 5))
	for i := range a.Workers {
		for k := range a.Workers[i].TrueQ {
			if a.Workers[i].TrueQ[k] != b.Workers[i].TrueQ[k] {
				t.Fatal("same seed produced different populations")
			}
		}
	}
}

func TestWorkerAnswerAccuracyMatchesQuality(t *testing.T) {
	w := &Worker{ID: "w", TrueQ: model.QualityVector{0.9, 0.5}}
	task := &model.Task{
		ID: 0, Choices: []string{"a", "b", "c"},
		Domain: model.DomainVector{0.8, 0.2}, Truth: 1, TrueDomain: model.NoTruth,
	}
	r := mathx.NewRand(2)
	const n = 20000
	correct := 0
	wrongCounts := map[int]int{}
	for i := 0; i < n; i++ {
		c := w.Answer(task, r)
		if c == task.Truth {
			correct++
		} else {
			wrongCounts[c]++
		}
	}
	want := 0.9*0.8 + 0.5*0.2
	got := float64(correct) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical accuracy %.3f, want %.3f", got, want)
	}
	// Wrong answers spread uniformly over the two wrong choices.
	if wrongCounts[1] != 0 {
		t.Error("truth counted as wrong")
	}
	ratio := float64(wrongCounts[0]) / float64(wrongCounts[2])
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("wrong-answer ratio %.2f, want ≈1", ratio)
	}
}

func TestCollect(t *testing.T) {
	pop, _ := NewPopulation(testConfig(15, 3))
	tasks := []*model.Task{
		{ID: 0, Choices: []string{"a", "b"}, Domain: model.DomainVector{1, 0, 0, 0}, Truth: 0, TrueDomain: model.NoTruth},
		{ID: 1, Choices: []string{"a", "b"}, Domain: model.DomainVector{0, 1, 0, 0}, Truth: 1, TrueDomain: model.NoTruth},
	}
	as, err := Collect(tasks, pop, 10)
	if err != nil {
		t.Fatal(err)
	}
	if as.Len() != 20 {
		t.Fatalf("collected %d answers, want 20", as.Len())
	}
	for _, tk := range tasks {
		if n := len(as.ForTask(tk.ID)); n != 10 {
			t.Errorf("task %d has %d answers, want 10", tk.ID, n)
		}
		seen := map[string]bool{}
		for _, a := range as.ForTask(tk.ID) {
			if seen[a.Worker] {
				t.Errorf("task %d answered twice by %s", tk.ID, a.Worker)
			}
			seen[a.Worker] = true
		}
	}
}

func TestCollectErrors(t *testing.T) {
	pop, _ := NewPopulation(testConfig(5, 3))
	tasks := []*model.Task{{ID: 0, Choices: []string{"a", "b"}, Truth: 0, TrueDomain: model.NoTruth}}
	if _, err := Collect(tasks, pop, 10); err == nil {
		t.Error("perTask > population accepted")
	}
	if _, err := Collect(tasks, pop, 3); err == nil {
		t.Error("task without domain vector accepted")
	}
}

func TestDomainBias(t *testing.T) {
	cfg := testConfig(30, 9)
	cfg.DomainBias = []float64{0, 0, 0.3, -0.3}
	pop, _ := NewPopulation(cfg)
	var mean2, mean3 float64
	for _, w := range pop.Workers {
		mean2 += w.TrueQ[2]
		mean3 += w.TrueQ[3]
	}
	mean2 /= float64(len(pop.Workers))
	mean3 /= float64(len(pop.Workers))
	if mean2 <= mean3 {
		t.Errorf("bias not applied: domain2 mean %.2f <= domain3 mean %.2f", mean2, mean3)
	}
}

func TestAnswerGolden(t *testing.T) {
	pop, _ := NewPopulation(testConfig(8, 11))
	golden := []*model.Task{
		{ID: 100, Choices: []string{"a", "b"}, Domain: model.DomainVector{1, 0, 0, 0}, Truth: 0, TrueDomain: model.NoTruth},
		{ID: 101, Choices: []string{"a", "b"}, Domain: model.DomainVector{0, 1, 0, 0}, Truth: 1, TrueDomain: model.NoTruth},
	}
	byWorker := AnswerGolden(golden, pop)
	if len(byWorker) != 8 {
		t.Fatalf("golden answers for %d workers, want 8", len(byWorker))
	}
	for w, as := range byWorker {
		if len(as) != 2 {
			t.Errorf("worker %s answered %d golden tasks, want 2", w, len(as))
		}
	}
}

func TestTrueQualitiesIsCopy(t *testing.T) {
	pop, _ := NewPopulation(testConfig(3, 17))
	qs := pop.TrueQualities()
	id := pop.Workers[0].ID
	qs[id][0] = -99
	if pop.Workers[0].TrueQ[0] == -99 {
		t.Error("TrueQualities leaked internal slice")
	}
}
