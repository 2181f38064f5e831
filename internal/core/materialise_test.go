package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"docs/internal/core"
	"docs/internal/dataset"
	"docs/internal/model"
	"docs/internal/registry"
	"docs/internal/snapshot"
)

// TestWakeMaterialisesAnsweredTasksOnly: a task costs the truth engine
// nothing until it is answered. A 6,000-task publish materialises no task;
// answers on N distinct tasks — one or two each, single and batched,
// across rerun boundaries — materialise exactly N; and a wake materialises
// exactly those N again, over the snapshot hibernation wrote and over the
// whole log without it.
func TestWakeMaterialisesAnsweredTasksOnly(t *testing.T) {
	const name, n, answered = "latent", 6000, 814
	root := t.TempDir()
	open := func() *registry.Registry {
		t.Helper()
		reg, err := registry.Open(registry.Config{WALDir: root, Campaign: core.Config{GoldenCount: -1, RerunEvery: 100}})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	reg := open()
	defer func() { reg.Close() }()
	if err := reg.Create(name); err != nil {
		t.Fatal(err)
	}
	var src []*model.Task
	for _, ds := range dataset.All(1) {
		src = append(src, ds.Tasks...)
	}
	tasks := make([]*model.Task, n)
	for i := range tasks {
		tk := *src[i%len(src)]
		tk.ID, tk.Domain = i, nil
		tasks[i] = &tk
	}
	// materialised reads the campaign's count, and whether the core serving
	// it was woken over a snapshot.
	materialised := func() (count int, fromSnapshot bool) {
		t.Helper()
		if err := reg.Do(name, func(sys *core.System) error {
			count, fromSnapshot = core.Materialised(sys), sys.Recovery().SnapshotUsed
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return count, fromSnapshot
	}

	if err := reg.Do(name, func(sys *core.System) error { return sys.Publish(tasks) }); err != nil {
		t.Fatal(err)
	}
	if got, _ := materialised(); got != 0 {
		t.Fatalf("a %d-task publish materialised %d tasks, want 0", n, got)
	}
	var batch []core.BatchItem
	for i := 0; i < answered; i++ {
		id := i * 7 % n // distinct, spread over the publication
		items := []core.BatchItem{{Worker: fmt.Sprintf("w%d", i%23), Task: id, Choice: i % 2}}
		if i%3 == 0 {
			items = append(items, core.BatchItem{Worker: fmt.Sprintf("w%d", (i+1)%23), Task: id, Choice: 0})
		}
		if i%2 == 0 {
			batch = append(batch, items...)
			continue
		}
		for _, it := range items {
			if err := reg.Do(name, func(sys *core.System) error { return sys.Submit(it.Worker, it.Task, it.Choice) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := reg.Do(name, func(sys *core.System) error {
		statuses, err := sys.SubmitBatch(batch)
		for _, st := range statuses {
			if !st.OK {
				return fmt.Errorf("batched answer refused: %s", st.Err)
			}
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := materialised(); got != answered {
		t.Fatalf("answers on %d distinct tasks materialised %d", answered, got)
	}

	if err := reg.Hibernate(name); err != nil {
		t.Fatal(err)
	}
	if got, fromSnapshot := materialised(); got != answered || !fromSnapshot {
		t.Fatalf("the wake over a snapshot (used: %v) materialised %d tasks, want the %d answered", fromSnapshot, got, answered)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(root, "campaigns", name, snapshot.FileName)); err != nil {
		t.Fatal(err)
	}
	reg = open()
	if got, fromSnapshot := materialised(); got != answered || fromSnapshot {
		t.Fatalf("the wake over the whole log (snapshot used: %v) materialised %d tasks, want the %d answered", fromSnapshot, got, answered)
	}
}
