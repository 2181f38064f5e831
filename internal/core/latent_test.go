package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/store"
)

// A task is latent until its first answer: the truth engine holds nothing
// of it, and every reader takes the rest state its shape shares. The oracle
// is the eager install — every regular task materialised at publish, which
// is what every build up to 498f0da did — and the two must be the same
// campaign down to the last bit of its fingerprint.

// latentTraceTasks is how many tasks the traced campaign publishes.
const latentTraceTasks = 900

// latentConfig is the campaign the traces drive: golden profiling, a
// redundancy cap, a rerun every 40 answers and leases on the clock *now.
func latentConfig(now *time.Time) Config {
	return Config{GoldenCount: 6, HITSize: 4, AnswersPerTask: 3, RerunEvery: 40,
		LeaseTTL: time.Minute, Clock: func() time.Time { return *now }}
}

// traceSide is one campaign a trace drives: its log directory, its worker
// store (kept across wakes, as a registry keeps it) and how it boots.
type traceSide struct {
	dir   string
	store *store.Store
	boot  func(s *System) // runs on a new System before it recovers
	s     *System
}

// wake boots the side's System from its directory.
func (sd *traceSide) wake(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Store = sd.store
	sd.s = newSystem(t, cfg)
	if sd.boot != nil {
		sd.boot(sd.s)
	}
	if _, err := sd.s.Recover(sd.dir); err != nil {
		t.Fatal(err)
	}
}

// newTraceSide boots a fresh side over an empty directory.
func newTraceSide(t *testing.T, cfg Config, boot func(s *System)) *traceSide {
	t.Helper()
	st, err := store.Open("", kb.MustDefault().Domains().Size())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	sd := &traceSide{dir: t.TempDir(), store: st, boot: boot}
	sd.wake(t, cfg)
	return sd
}

// publishTrace publishes latentTraceTasks dataset tasks on every side.
func publishTrace(t *testing.T, sides []*traceSide) {
	t.Helper()
	for _, sd := range sides {
		if err := sd.s.Publish(datasetTasks(latentTraceTasks)); err != nil {
			t.Fatal(err)
		}
	}
}

// driveTrace runs steps seeded operations on every side in lockstep — a
// worker's request and answers to most of what she was served, a batch of
// answers to random tasks (repeats, golden tasks and unknown IDs among
// them), the lease clock moving on, a hibernation and wake — failing as
// soon as two sides answer an operation differently. check runs after
// every step.
func driveTrace(t *testing.T, seed uint64, steps int, cfg Config, now *time.Time, sides []*traceSide, check func(step int)) {
	t.Helper()
	r := mathx.NewRand(seed)
	for step := 0; step < steps; step++ {
		outs := make([]string, len(sides))
		switch op := r.Intn(20); {
		case op < 11:
			w, k := fmt.Sprintf("w%d", r.Intn(24)), 1+r.Intn(5)
			choice, skip := make([]int, k), make([]bool, k)
			for j := range choice {
				choice[j], skip[j] = r.Intn(12), r.Intn(5) == 0
			}
			for i, sd := range sides {
				got, err := sd.s.Request(w, k)
				var b strings.Builder
				fmt.Fprintf(&b, "%v|", err)
				for j, tk := range sd.s.Tasks(got) {
					fmt.Fprintf(&b, "%d:", tk.ID)
					if !skip[j] {
						fmt.Fprintf(&b, "%v,", sd.s.Submit(w, tk.ID, choice[j]%tk.NumChoices()))
					}
				}
				outs[i] = b.String()
			}
		case op < 15:
			items := make([]BatchItem, 1+r.Intn(8))
			for j := range items {
				items[j] = BatchItem{Worker: fmt.Sprintf("w%d", r.Intn(24)), Task: r.Intn(latentTraceTasks + 4), Choice: r.Intn(2)}
			}
			for i, sd := range sides {
				st, err := sd.s.SubmitBatch(items)
				outs[i] = fmt.Sprint(st, err)
			}
		case op < 19:
			*now = now.Add(time.Duration(r.Intn(90)) * time.Second)
		default:
			for _, sd := range sides {
				if err := sd.s.Hibernate(); err != nil {
					t.Fatal(err)
				}
				sd.wake(t, cfg)
			}
		}
		for i := range outs[1:] {
			if outs[i+1] != outs[0] {
				t.Fatalf("step %d: side %d answered %q, side 0 %q", step, i+1, outs[i+1], outs[0])
			}
		}
		check(step)
	}
}

// answeredTasks counts the distinct tasks the system's answer log names.
// materialised is how many of s's tasks hold a state of their own in the
// truth engine, each found through the slot at its position: the rest are
// latent.
func materialised(s *System) int {
	n, ci := 0, s.pub.Load().ci
	for p := range ci.slots {
		if ci.slots[p].View() != nil {
			n++
		}
	}
	return n
}

func answeredTasks(s *System) int {
	seen := map[int32]bool{}
	for _, p := range s.logPrefix().Task {
		seen[p] = true
	}
	return len(seen)
}

// TestLatentTasksMatchEagerInstall holds latent tasks to the eager
// install. Over seeded traces of requests, single and batched submits,
// reruns, lease expiry and hibernate/wake cycles, a campaign whose tasks
// stay latent until answered and one that materialises every task at
// publish answer every call alike and have byte-equal fingerprints after
// every step (every eighth under -race), and the latent one holds exactly
// the answered tasks.
func TestLatentTasksMatchEagerInstall(t *testing.T) {
	every := 1 // steps between fingerprint comparisons
	if raceEnabled {
		every = 8
	}
	for _, seed := range []uint64{20160412, 7781} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			now := time.Unix(1_460_000_000, 0)
			cfg := latentConfig(&now)
			latent := newTraceSide(t, cfg, nil)
			eager := newTraceSide(t, cfg, func(s *System) { s.eagerInstall = true })
			defer func() { latent.s.Close(); eager.s.Close() }()
			publishTrace(t, []*traceSide{latent, eager})
			driveTrace(t, seed, 240, cfg, &now, []*traceSide{latent, eager}, func(step int) {
				if n, answered := materialised(latent.s), answeredTasks(latent.s); n != answered {
					t.Fatalf("step %d: %d tasks materialised, %d answered", step, n, answered)
				}
				if step%every != 0 {
					return
				}
				if got, want := latent.s.Fingerprint(), eager.s.Fingerprint(); got != want {
					t.Fatalf("step %d: latent tasks differ from the eager install:\n%s", step, diff(got, want))
				}
			})
			if n := latent.s.Stats().Answers; n < 3*int64(cfg.RerunEvery) {
				t.Fatalf("the trace logged %d answers, want reruns", n)
			}
			for _, sd := range []*traceSide{latent, eager} {
				if _, err := sd.s.Results(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := latent.s.Fingerprint(), eager.s.Fingerprint(); got != want {
				t.Fatalf("after Results: latent tasks differ from the eager install:\n%s", diff(got, want))
			}
		})
	}
}
