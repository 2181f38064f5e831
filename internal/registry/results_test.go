package registry

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/core"
	"docs/internal/wal"
)

// resultsRound has every worker request one batch of regular tasks and
// answer it, right on tasks whose ID and round are not both odd.
func resultsRound(t *testing.T, reg *Registry, name string, workers []string, round int) {
	t.Helper()
	sys := coreOf(t, reg, name)
	for _, w := range workers {
		got, err := sys.Request(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range got {
			if err := sys.Submit(w, tk.ID, tk.Truth^(tk.ID&round&1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// storeRecords counts the records the registry's store log holds.
func storeRecords(t *testing.T, root string) int {
	t.Helper()
	st, err := wal.Replay(filepath.Join(root, storeDir), func(wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return st.Records
}

// storeSection is the part of a campaign's Fingerprint that renders the
// shared store.
func storeSection(t *testing.T, reg *Registry, name string) string {
	t.Helper()
	var fp string
	if err := reg.Do(name, func(sys *core.System) error { fp = sys.Fingerprint(); return nil }); err != nil {
		t.Fatal(err)
	}
	return fp[strings.Index(fp, ";store:"):]
}

// TestResultsIsIdempotent: GET /results is a function of the answer prefix.
// A registry campaign with golden profiling over a persistent store calls
// Results once, three times, three times with submits in between, and three
// times with a hibernation and a wake in between; in every case the store —
// the Fingerprint's store section: each worker's value and the profile
// ledger — holds the bits one call at the final prefix leaves. A repeat
// call with nothing new appends no store record, woken or not.
func TestResultsIsIdempotent(t *testing.T) {
	const name, rounds = "idem", 3
	workers := []string{"w0", "w1", "w2"}
	type step int
	const (
		results step = iota
		hibernate
		submit
	)
	run := func(t *testing.T, steps []step) (section string) {
		root := t.TempDir()
		reg := openRegistry(t, crashConfig(root))
		sys, err := create(reg, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Publish(synthTasks(reg.cfg.Campaign.KB.Domains().Size(), 40, 0)); err != nil {
			t.Fatal(err)
		}
		for _, w := range workers {
			profile(t, sys, w)
		}
		round, lastCall := 0, -1
		for _, st := range steps {
			switch st {
			case submit:
				resultsRound(t, reg, name, workers, round)
				round++
			case hibernate:
				if err := reg.Hibernate(name); err != nil {
					t.Fatal(err)
				}
			case results:
				before := storeRecords(t, root)
				if err := reg.Do(name, func(sys *core.System) error { _, err := sys.Results(); return err }); err != nil {
					t.Fatal(err)
				}
				if lastCall == round && storeRecords(t, root) != before {
					t.Errorf("a repeat call at an unchanged prefix appended %d store records", storeRecords(t, root)-before)
				}
				lastCall = round
			}
		}
		if round != rounds {
			t.Fatalf("ran %d rounds, want %d", round, rounds)
		}
		return storeSection(t, reg, name)
	}
	wantSection := run(t, []step{submit, submit, submit, results})
	if !strings.Contains(wantSection, "w0:q") {
		t.Fatalf("the reference store section holds no worker: %s", wantSection)
	}
	for _, c := range []struct {
		name  string
		steps []step
	}{
		{"3x", []step{submit, submit, submit, results, results, results}},
		{"3x with submits between", []step{submit, results, submit, results, submit, results}},
		{"3x with a wake between", []step{submit, submit, submit, results, hibernate, results, hibernate, results}},
		{"submits and wakes between", []step{submit, results, hibernate, submit, results, hibernate, submit, results, hibernate, results}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if gotSection := run(t, c.steps); gotSection != wantSection {
				t.Errorf("Fingerprint store section differs from one call at the final prefix:\n got %s\nwant %s", gotSection, wantSection)
			}
		})
	}
}

// TestResultsCountsGoldenOnce: one profiled worker — 6 golden answers, then
// 10 regular ones, every task on one domain — has a weight of 6 after
// profiling and 16 after any number of Results calls: the golden evidence
// reached the store when she was profiled, and a call's session covers her
// regular answers alone and replaces the call before it.
func TestResultsCountsGoldenOnce(t *testing.T) {
	cfg := crashConfig(t.TempDir())
	cfg.Campaign.GoldenCount = 6
	reg := openRegistry(t, cfg)
	sys, err := create(reg, "probe")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(synthTasks(reg.cfg.Campaign.KB.Domains().Size(), 40, 0)); err != nil {
		t.Fatal(err)
	}
	profile(t, sys, "w")
	weight := func() float64 {
		st, ok := reg.Store().Worker("w")
		if !ok {
			t.Fatal("the worker is not in the store")
		}
		sum := 0.0
		for _, u := range st.U {
			sum += u
		}
		return sum
	}
	if got := weight(); got != 6 {
		t.Fatalf("Σu after profiling = %g, want 6", got)
	}
	for answered := 0; answered < 10; {
		got, err := sys.Request("w", 10-answered)
		if err != nil || len(got) == 0 {
			t.Fatalf("request after %d answers: %d tasks, %v", answered, len(got), err)
		}
		for _, tk := range got {
			if err := sys.Submit("w", tk.ID, tk.Truth); err != nil {
				t.Fatal(err)
			}
			answered++
		}
	}
	for call := 1; call <= 3; call++ {
		if _, err := sys.Results(); err != nil {
			t.Fatal(err)
		}
		if got := weight(); got != 16 {
			t.Errorf("Σu after %d Results calls = %g, want 16", call, got)
		}
	}
	if got := fmt.Sprint(reg.Store().ProfileIDs()); got != "[probe/w]" {
		t.Errorf("profile ledger %s, want [probe/w]", got)
	}
}
