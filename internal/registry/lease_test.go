package registry

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/model"
	"docs/internal/wal"
)

// TestCapOneNeverFailsACall serves two campaigns under a resident cap of
// one, so nearly every call wakes its campaign and evicts the other one —
// while the other one's clients are mid-call. Eviction waits for no one and
// fails no one: every request and submit succeeds, and after Close and
// reopen each campaign holds exactly the answers it acknowledged.
func TestCapOneNeverFailsACall(t *testing.T) {
	for _, clients := range []int{2, 8} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			root := t.TempDir()
			cfg := crashConfig(root)
			cfg.MaxLiveCampaigns = 1
			cfg.Campaign.AnswersPerTask = 4
			reg, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer reg.Close()
			names := []string{"left", "right"}
			golden := make(map[string]map[int]bool, len(names))
			for i, name := range names {
				if err := reg.Create(name); err != nil {
					t.Fatal(err)
				}
				golden[name] = map[int]bool{}
				err := reg.Do(name, func(sys *core.System) error {
					if err := sys.Publish(synthTasks(sys.Domains().Size(), 60, 100*i)); err != nil {
						return err
					}
					for _, id := range sys.GoldenTasks() {
						golden[name][id] = true
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}

			// Each client serves one campaign as four workers in turn, each
			// requesting and answering until the campaign has nothing left
			// for it.
			var (
				mu     sync.Mutex
				acked  = make(map[string][]model.Answer, len(names))
				failed int
				wg     sync.WaitGroup
			)
			fail := func(what string, err error) {
				mu.Lock()
				failed++
				mu.Unlock()
				t.Errorf("%s: %v", what, err)
			}
			start := make(chan struct{})
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(name string, c int) {
					defer wg.Done()
					<-start
					for j := 0; j < 4; {
						worker := fmt.Sprintf("w%d-%d", c, j)
						var got []core.Served
						if err := reg.Do(name, func(sys *core.System) (err error) {
							got, err = sys.Request(worker, crashKnobs.hit)
							return err
						}); err != nil {
							fail("request", err)
							return
						}
						if len(got) == 0 {
							j++
							continue
						}
						for _, tk := range got {
							choice := max(tk.Truth, 0)
							if err := reg.Do(name, func(sys *core.System) error {
								time.Sleep(100 * time.Microsecond) // a slow call: the other campaign wakes meanwhile
								return sys.Submit(worker, tk.ID, choice)
							}); err != nil {
								fail("submit", err)
								return
							}
							if !golden[name][tk.ID] {
								mu.Lock()
								acked[name] = append(acked[name], model.Answer{Worker: worker, Task: tk.ID, Choice: choice})
								mu.Unlock()
							}
						}
					}
				}(names[c%len(names)], c)
			}
			close(start)
			wg.Wait()
			if failed > 0 {
				t.Fatalf("%d calls failed", failed)
			}
			wakes := reg.Stats().WakesTotal
			if wakes == 0 {
				t.Fatal("no campaign was ever woken: the cap was not exercised")
			}
			t.Logf("%d wakes", wakes)
			if err := reg.Close(); err != nil {
				t.Fatal(err)
			}

			booted, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer booted.Close()
			for _, name := range names {
				if len(acked[name]) == 0 {
					t.Fatalf("%s: no regular answer was acknowledged", name)
				}
				err := booted.Do(name, func(sys *core.System) error {
					if got, want := sys.Stats().Answers, int64(len(acked[name])); got != want {
						return fmt.Errorf("%d answers after reboot, %d acknowledged", got, want)
					}
					for _, a := range acked[name] {
						if !hasAnswer(sys, a) {
							return fmt.Errorf("acknowledged answer %+v is missing after reboot", a)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

// hasAnswer reports whether sys holds answer a.
func hasAnswer(sys *core.System, a model.Answer) bool {
	for _, got := range sys.Answers().ForWorker(a.Worker) {
		if got.Task == a.Task && got.Choice == a.Choice {
			return true
		}
	}
	return false
}

// TestDurabilityFailureFailsStop fails one submit's fsync. The submit
// returns ErrDurability, and the campaign stops serving the core that
// applied it: the next call runs on a core woken from the log, which does
// not hold the refused answer, fingerprints like a fresh recovery of the
// campaign's directory, and takes new answers again.
func TestDurabilityFailureFailsStop(t *testing.T) {
	root := t.TempDir()
	cfg := crashConfig(root)
	cfg.Campaign.WALSync = wal.SyncEveryBatch
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Create("brittle"); err != nil {
		t.Fatal(err)
	}
	var tasks []core.Served
	err = reg.Do("brittle", func(sys *core.System) (err error) {
		if err := sys.Publish(synthTasks(sys.Domains().Size(), 12, 0)); err != nil {
			return err
		}
		profile(t, sys, "w0") // the answers below are regular ones
		tasks, err = sys.Request("w0", 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("request served %d tasks, want 3", len(tasks))
	}
	submit := func(tk core.Served) error {
		return reg.Do("brittle", func(sys *core.System) error { return sys.Submit("w0", tk.ID, 0) })
	}
	if err := submit(tasks[0]); err != nil {
		t.Fatal(err)
	}

	wal.FailFsyncAt(1)
	err = submit(tasks[1])
	wal.FailFsyncAt(0)
	if !errors.Is(err, core.ErrDurability) {
		t.Fatalf("submit over a failed fsync = %v, want ErrDurability", err)
	}
	if reg.Resident("brittle") {
		t.Fatal("the campaign still serves the core that applied an unlogged answer")
	}

	var fp string
	err = reg.Do("brittle", func(sys *core.System) error {
		if hasAnswer(sys, model.Answer{Worker: "w0", Task: tasks[1].ID, Choice: 0}) {
			return fmt.Errorf("the refused answer is served")
		}
		if got := sys.Stats().Answers; got != 1 {
			return fmt.Errorf("%d answers, want the 1 acknowledged", got)
		}
		fp = sys.Fingerprint()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	cc := cfg.Campaign
	cc.ProfileScope = "brittle"
	cc.Store = memStore(t)
	fresh, err := core.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Recover(filepath.Join(root, campaignsDir, "brittle")); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Fingerprint(); got != fp {
		t.Fatalf("served state differs from a fresh recovery of the log:\nserved %s\nfresh  %s", fp, got)
	}

	// The failure cost the campaign one answer, not its service.
	booted, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	if err := booted.Do("brittle", func(sys *core.System) error { return sys.Submit("w0", tasks[2].ID, 0) }); err != nil {
		t.Fatalf("submit after the failure: %v", err)
	}
}
