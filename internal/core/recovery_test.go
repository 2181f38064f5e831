package core_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"docs/internal/core"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/registry"
	"docs/internal/store"
)

// TestRecoveryRunsOneRerun: a replay runs the last periodic rerun its log
// reaches and no other, since that one overwrites every rerun before it —
// after a boot, after a registry wake, and inside the scratch replica
// Hibernate's snapshot pass builds. It holds with every worker anchored by
// a golden gauntlet and with none anchored, and a campaign short of z
// regular answers replays no rerun at all.
func TestRecoveryRunsOneRerun(t *testing.T) {
	const z, name = 20, "c"
	var src []*model.Task
	for _, ds := range dataset.All(1) {
		src = append(src, ds.Tasks...)
	}
	tasks := func() []*model.Task {
		out := make([]*model.Task, 120)
		for i := range out {
			tk := *src[i%len(src)]
			tk.ID = i
			out[i] = &tk
		}
		return out
	}
	for _, tc := range []struct {
		name            string
		golden, answers int
	}{
		{"unanchored", -1, 10 * z},
		{"anchored", 4, 10 * z},
		{"short", -1, z - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{GoldenCount: tc.golden, HITSize: 4, RerunEvery: z}
			root := t.TempDir()
			reg, err := registry.Open(registry.Config{WALDir: root, Campaign: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Create(name); err != nil {
				t.Fatal(err)
			}
			var live int64
			err = reg.Do(name, func(sys *core.System) error {
				if err := sys.Publish(tasks()); err != nil {
					return err
				}
				for i := 0; sys.Stats().Answers < int64(tc.answers); i++ {
					w := fmt.Sprintf("w%d", i%7)
					got, err := sys.Request(w, 4)
					if err != nil {
						return err
					}
					for _, tk := range got {
						if sys.Stats().Answers == int64(tc.answers) {
							break
						}
						if err := sys.Submit(w, tk.ID, max(tk.Truth, 0)); err != nil {
							return err
						}
					}
				}
				live = sys.Stats().RerunsCompleted
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}
			want := int64(0)
			if tc.answers >= z {
				want = 1
			}
			if live != int64(tc.answers/z) {
				t.Fatalf("the live campaign ran %d reruns over %d answers, want %d", live, tc.answers, tc.answers/z)
			}

			cfg.ProfileScope = name
			if cfg.Store, err = store.Open("", kb.MustDefault().Domains().Size()); err != nil {
				t.Fatal(err)
			}
			boot, err := core.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := boot.Recover(filepath.Join(root, "campaigns", name)); err != nil {
				t.Fatal(err)
			}
			if got := boot.Stats().RerunsCompleted; got != want {
				t.Errorf("a boot replayed %d reruns, want %d", got, want)
			}
			if err := boot.Close(); err != nil {
				t.Fatal(err)
			}

			// Listed cold under a cap, the campaign wakes on its first call
			// with no snapshot to restore; Hibernate's pass then replays the
			// whole log once more, in its replica.
			reg, err = registry.Open(registry.Config{WALDir: root, Campaign: cfg, MaxLiveCampaigns: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			var woken int64
			pass := 0
			err = reg.Do(name, func(sys *core.System) error {
				woken = sys.Stats().RerunsCompleted
				core.CountPassReruns(sys, &pass)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if woken != want {
				t.Errorf("a registry wake replayed %d reruns, want %d", woken, want)
			}
			if err := reg.Hibernate(name); err != nil {
				t.Fatal(err)
			}
			if int64(pass) != want {
				t.Errorf("Hibernate's snapshot pass replayed %d reruns, want %d", pass, want)
			}
		})
	}
}
