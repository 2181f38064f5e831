package registry

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/crashtest"
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
			reg := openRegistry(t, cfg)
			names := []string{"left", "right"}
			golden := make(map[string]map[int]bool, len(names))
			for i, name := range names {
				golden[name] = goldenOf(published(t, reg, name, 60, 100*i))
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

			booted := openRegistry(t, cfg)
			for _, name := range names {
				sys := coreOf(t, booted, name)
				if got, want := sys.Stats().Answers, int64(len(acked[name])); got != want || want == 0 {
					t.Fatalf("%s: %d answers after reboot, %d acknowledged (and some must be)", name, got, want)
				}
				for _, a := range acked[name] {
					if !hasAnswer(sys, a) {
						t.Fatalf("%s: acknowledged answer %+v is missing after reboot", name, a)
					}
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
	reg := openRegistry(t, cfg)
	if err := reg.Create("brittle"); err != nil {
		t.Fatal(err)
	}
	var tasks []core.Served
	err := reg.Do("brittle", func(sys *core.System) (err error) {
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
	dir := filepath.Join(campaignsDir, "brittle")
	if got := (&registries{}).Replay(t, root, dir, crashtest.ReadStream(t, filepath.Join(root, dir))); got != fp {
		t.Fatalf("served state differs from a fresh recovery of the log\n%s", diff(got, fp))
	}

	// The failure cost the campaign one answer, not its service.
	booted := openRegistry(t, cfg)
	if err := booted.Do("brittle", func(sys *core.System) error { return sys.Submit("w0", tasks[2].ID, 0) }); err != nil {
		t.Fatalf("submit after the failure: %v", err)
	}
}

// TestStoppedCallRunsOnTheWokenCore hibernates a campaign under a call:
// the hibernation is the writer's last call, so the call's submit reaches a
// stopped writer, applies nothing and gets core.ErrStopped, and Do runs the
// call again on the woken core, once. A call whose core stops under both
// runs fails with core.ErrStopped and leaves no answer behind.
func TestStoppedCallRunsOnTheWokenCore(t *testing.T) {
	reg := openRegistry(t, crashConfig(t.TempDir()))
	sys := published(t, reg, "stopped", 12, 0)
	profile(t, sys, "w0") // the answers below are regular ones
	tasks, err := sys.Request("w0", 2)
	if err != nil || len(tasks) != 2 {
		t.Fatalf("request: %d tasks, %v", len(tasks), err)
	}
	submit := func(tk core.Served, stops int) (runs []*core.System, err error) {
		err = reg.Do("stopped", func(sys *core.System) error {
			runs = append(runs, sys)
			if len(runs) <= stops {
				if err := reg.Hibernate("stopped"); err != nil {
					return err
				}
			}
			return sys.Submit("w0", tk.ID, 0)
		})
		return runs, err
	}

	runs, err := submit(tasks[0], 1)
	if err != nil {
		t.Fatalf("a call the core stopped under failed: %v", err)
	}
	if len(runs) != 2 || runs[0] == runs[1] {
		t.Fatalf("the call ran %d times, want twice on two cores", len(runs))
	}
	if !hasAnswer(runs[1], model.Answer{Worker: "w0", Task: tasks[0].ID, Choice: 0}) || runs[1].Stats().Answers != 1 {
		t.Fatal("the woken core does not hold the one answer the second run gave")
	}
	if wakes := reg.Stats().WakesTotal; wakes != 1 {
		t.Fatalf("%d wakes, want 1", wakes)
	}

	runs, err = submit(tasks[1], 2)
	if !errors.Is(err, core.ErrStopped) || len(runs) != 2 {
		t.Fatalf("a call stopped under twice ran %d times and returned %v, want twice and core.ErrStopped", len(runs), err)
	}
	final := coreOf(t, reg, "stopped")
	if hasAnswer(final, model.Answer{Worker: "w0", Task: tasks[1].ID, Choice: 0}) || final.Stats().Answers != 1 {
		t.Fatal("a refused submit left an answer behind")
	}
}
