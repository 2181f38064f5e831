package core_test

import (
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/dataset"
	"docs/internal/model"
	"docs/internal/registry"
)

// TestStoppedRequestGrantsOnTheWokenCore hibernates a campaign between a
// leased Request's two writer calls: the expiry and listing ran on the
// first core, whose writer then stops, so the grant reaches a stopped
// writer, grants nothing and gets core.ErrStopped. Do runs the call again,
// once, on the woken core, and the grant lands there.
func TestStoppedRequestGrantsOnTheWokenCore(t *testing.T) {
	const name = "c"
	reg, err := registry.Open(registry.Config{
		WALDir:   t.TempDir(),
		Campaign: core.Config{GoldenCount: -1, HITSize: 4, LeaseTTL: time.Minute, RerunEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Create(name); err != nil {
		t.Fatal(err)
	}
	var tasks []*model.Task
	for i, tk := range dataset.All(1)[0].Tasks[:20] {
		tk := *tk
		tk.ID, tk.Domain = i, nil
		tasks = append(tasks, &tk)
	}
	if err := reg.Do(name, func(sys *core.System) error { return sys.Publish(tasks) }); err != nil {
		t.Fatal(err)
	}

	var runs []*core.System
	var served []core.Served
	err = reg.Do(name, func(sys *core.System) (err error) {
		runs = append(runs, sys)
		if len(runs) == 1 {
			core.ArmAssign(sys, func() {
				if err := reg.Hibernate(name); err != nil {
					t.Error(err)
				}
			})
		}
		served, err = sys.Request("w0", 4)
		return err
	})
	if err != nil {
		t.Fatalf("a request its core stopped under failed: %v", err)
	}
	if len(runs) != 2 || runs[0] == runs[1] {
		t.Fatalf("the call ran %d times, want twice on two cores", len(runs))
	}
	if len(served) != 4 {
		t.Fatalf("the woken core served %d tasks, want 4", len(served))
	}
	if got := runs[0].Stats().LeasesActive; got != 0 {
		t.Errorf("the stopped core holds %d leases, want none", got)
	}
	if got := runs[1].Stats().LeasesActive; got != int64(len(served)) {
		t.Errorf("the woken core holds %d leases, want the %d it served", got, len(served))
	}
	if wakes := reg.Stats().WakesTotal; wakes != 1 {
		t.Errorf("%d wakes, want 1", wakes)
	}
}
