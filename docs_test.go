package docs

import (
	"testing"
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
	// ValidateTasks is the same verdict without a System.
	valid := Task{ID: 0, Text: "x", Choices: []string{"a", "b"}, GoldenTruth: 1}
	for name, batch := range map[string][]Task{
		"single choice":      {{ID: 0, Text: "x", Choices: []string{"only"}, GoldenTruth: NoTruth}},
		"truth out of range": {{ID: 0, Text: "x", Choices: []string{"a", "b"}, GoldenTruth: 7}},
		"duplicate ID":       {valid, valid},
	} {
		verr := ValidateTasks(batch)
		perr := sys.Publish(batch)
		if verr == nil || perr == nil || verr.Error() != perr.Error() {
			t.Errorf("%s: ValidateTasks says %v, Publish says %v", name, verr, perr)
		}
	}
	if err := ValidateTasks([]Task{valid}); err != nil {
		t.Errorf("ValidateTasks rejected a valid batch: %v", err)
	}
	if sys.Published() {
		t.Error("a rejected batch published")
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
