// Command docs-simulate runs complete simulated crowdsourcing campaigns
// end to end: it generates one of the paper's datasets, publishes it to a
// DOCS system, drives a simulated worker population through the golden-
// profiling and OTA loop, and reports the final accuracy and worker
// statistics.
//
// With -campaigns N > 1 it hosts N campaigns in one campaign registry over
// a single shared worker store: the same worker population serves all of
// them, so workers profiled on campaign 0's golden tasks skip the golden
// gauntlet everywhere else — the paper's cross-requester story — and the
// tool reports how many profiles carried over per campaign.
//
// With -batch N answers are submitted in groups of up to N per call
// through the batched (group-committed) core entry, the path POST
// /submit-batch uses. To load a running docs-server over HTTP, use
// cmd/docs-perf.
//
// Usage:
//
//	docs-simulate -dataset 4D -workers 50 -redundancy 10 -seed 7
//	docs-simulate -dataset Item -campaigns 4 -workers 80
//	docs-simulate -dataset Item -batch 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"docs/internal/core"
	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/registry"
	"docs/internal/truth"
	"docs/internal/wal"
)

func main() {
	name := flag.String("dataset", "Item", "dataset: Item, 4D, QA or SFV")
	campaigns := flag.Int("campaigns", 1, "number of campaigns hosted in one registry (same dataset family, different seeds) served by one shared worker population")
	workers := flag.Int("workers", 50, "simulated worker population size, shared across campaigns")
	redundancy := flag.Int("redundancy", 10, "answers collected per task")
	hit := flag.Int("hit", 20, "tasks per HIT")
	golden := flag.Int("golden", 20, "golden task count per campaign")
	seed := flag.Uint64("seed", 20160412, "deterministic seed")
	walDir := flag.String("wal-dir", "", "registry root directory: campaigns become durable under <dir>/campaigns/<name> and an interrupted simulation resumes from the logs (empty = memory-only)")
	walFsync := flag.Bool("wal-fsync", false, "fsync the WALs once per group-commit batch")
	batch := flag.Int("batch", 0, "submit answers through the batched core entry in groups of up to N per call; 0 or 1 = one answer per submit")
	adversarial := flag.String("adversarial", "", `adversarial population spec, e.g. "spam=0.2,sleep=0.1,cliques=2x3,drift=-0.002" (empty = honest crowd)`)
	flag.Parse()

	adv, err := parseAdversarial(*adversarial)
	if err != nil {
		log.Fatalf("docs-simulate: -adversarial: %v", err)
	}

	walSync := wal.SyncNever
	if *walFsync {
		walSync = wal.SyncEveryBatch
	}
	reg, err := registry.Open(registry.Config{
		WALDir: *walDir,
		Campaign: core.Config{
			GoldenCount:    *golden,
			HITSize:        *hit,
			AnswersPerTask: *redundancy,
			WALSync:        walSync,
		},
	})
	if err != nil {
		log.Fatalf("docs-simulate: %v", err)
	}
	defer reg.Close()

	base, err := dataset.ByName(*name, *seed)
	if err != nil {
		log.Fatalf("docs-simulate: %v", err)
	}
	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers:      *workers,
		M:               kb.MustDefault().Domains().Size(),
		RelevantDomains: base.YahooIndex,
		Seed:            *seed,
		Adversarial:     adv,
	})
	if err != nil {
		log.Fatalf("docs-simulate: %v", err)
	}
	if *adversarial != "" {
		printComposition(pop)
	}

	for ci := 0; ci < *campaigns; ci++ {
		ds := base
		if ci > 0 {
			// Same dataset family, different generation seed: each
			// requester brings their own task set over the same domains.
			if ds, err = dataset.ByName(*name, *seed+uint64(ci)); err != nil {
				log.Fatalf("docs-simulate: %v", err)
			}
		}
		cname := fmt.Sprintf("c%d", ci)
		if *campaigns > 1 {
			fmt.Printf("=== campaign %s ===\n", cname)
		}
		runCampaign(reg, cname, ds, pop, *name, *hit, *redundancy, *batch, *campaigns == 1)
	}
	if *campaigns > 1 {
		fmt.Printf("shared store: %d workers profiled across %d campaigns\n",
			reg.Store().Len(), *campaigns)
	}
}

// runCampaign publishes (or resumes) one campaign and drives the shared
// population through it until every task reaches its redundancy cap.
// With batch > 1, each HIT's answers go through the batched core entry
// (the same group-committed path POST /submit-batch uses) in chunks of
// up to batch answers.
func runCampaign(reg *registry.Registry, cname string, ds *dataset.Dataset, pop *crowd.Population, dsName string, hit, redundancy, batch int, verbose bool) {
	if err := reg.Create(cname); err != nil && !errors.Is(err, registry.ErrExists) {
		log.Fatalf("docs-simulate: %v", err)
	}
	err := reg.Do(cname, func(sys *core.System) error {
		driveCampaign(sys, ds, pop, dsName, hit, redundancy, batch, verbose)
		return nil
	})
	if err != nil {
		log.Fatalf("docs-simulate: %v", err)
	}
}

// driveCampaign is runCampaign's body, run on the campaign's core.
func driveCampaign(sys *core.System, ds *dataset.Dataset, pop *crowd.Population, dsName string, hit, redundancy, batch int, verbose bool) {
	if info := sys.Recovery(); info.Records > 0 {
		fmt.Printf("recovered %d records in %s (torn tail: %v)\n",
			info.Records, info.Duration.Round(time.Millisecond), info.TornTail)
	}
	if sys.Published() {
		fmt.Printf("resuming recovered campaign: %d answers already collected, %d golden tasks\n",
			sys.Stats().Answers, len(sys.GoldenTasks()))
	} else {
		if err := sys.Publish(ds.Tasks); err != nil {
			log.Fatalf("docs-simulate: publish: %v", err)
		}
		fmt.Printf("published %d tasks (%s), %d golden\n", len(ds.Tasks), dsName, len(sys.GoldenTasks()))
	}
	golden := map[int]bool{}
	for _, id := range sys.GoldenTasks() {
		golden[id] = true
	}

	r := pop.Rand()
	target := redundancy * (len(ds.Tasks) - len(sys.GoldenTasks()))
	collected := int(sys.Stats().Answers) // non-zero when resuming from a WAL
	hits := 0
	idle := 0
	goldenAnswers := 0
	carried, gauntlets := 0, 0
	seen := map[string]bool{}
	for collected < target && idle < 5000 {
		w := pop.Arrival()
		served, err := sys.Request(w.ID, hit)
		if err != nil {
			log.Fatalf("docs-simulate: request: %v", err)
		}
		assigned := sys.Tasks(served)
		if len(assigned) == 0 {
			idle++
			continue
		}
		idle = 0
		hits++
		if !seen[w.ID] {
			seen[w.ID] = true
			// A worker's first batch is homogeneous: golden while
			// unprofiled, regular once their profile carried over.
			if golden[assigned[0].ID] {
				gauntlets++
			} else {
				carried++
			}
		}
		if batch > 1 {
			items := make([]core.BatchItem, len(assigned))
			for i, tk := range assigned {
				items[i] = core.BatchItem{Worker: w.ID, Task: tk.ID, Choice: w.Answer(&tk, r)}
			}
			for start := 0; start < len(items); start += batch {
				end := min(start+batch, len(items))
				statuses, err := sys.SubmitBatch(items[start:end])
				if err != nil {
					log.Fatalf("docs-simulate: submit batch: %v", err)
				}
				for i, st := range statuses {
					if !st.OK {
						log.Fatalf("docs-simulate: submit batch item %d: %s", start+i+1, st.Err)
					}
				}
			}
		} else {
			for _, tk := range assigned {
				if err := sys.Submit(w.ID, tk.ID, w.Answer(&tk, r)); err != nil {
					log.Fatalf("docs-simulate: submit: %v", err)
				}
			}
		}
		for _, tk := range assigned {
			if golden[tk.ID] {
				goldenAnswers++
			} else {
				collected++
			}
		}
		if verbose && hits%200 == 0 {
			fmt.Printf("  %d HITs served, %d/%d answers collected\n", hits, collected, target)
		}
	}
	fmt.Printf("campaign done: %d HITs, %d answers (%d golden)\n", hits, collected, goldenAnswers)
	fmt.Printf("workers: %d served; %d carried a profile from an earlier campaign, %d ran the golden gauntlet\n",
		len(seen), carried, gauntlets)

	res, err := sys.Results()
	if err != nil {
		log.Fatalf("docs-simulate: results: %v", err)
	}
	inferTasks := sys.InferTasks()
	acc, n := truth.Accuracy(inferTasks, res.Truth)
	fmt.Printf("final accuracy: %.2f%% over %d tasks (TI converged in %d iterations)\n",
		100*acc, n, res.Iterations)

	if verbose {
		printWorkerCalibration(sys, pop, ds, res)
	}
	if comp := pop.Composition(); len(comp) > 1 || comp[crowd.Honest] != len(pop.Workers) {
		printAdversarialReport(pop, res)
	}
}

// printWorkerCalibration summarizes worker quality calibration over the
// dataset's domains (single-campaign mode only, matching the original
// report).
func printWorkerCalibration(sys *core.System, pop *crowd.Population, ds *dataset.Dataset, res *truth.Result) {
	type row struct {
		id       string
		answered int
		dev      float64
	}
	trueQ, answers := pop.TrueQualities(), sys.Answers()
	var rows []row
	for w, eq := range res.Quality {
		tq, ok := trueQ[w]
		if !ok {
			continue
		}
		var dev float64
		for _, k := range ds.YahooIndex {
			d := tq[k] - eq[k]
			if d < 0 {
				d = -d
			}
			dev += d
		}
		dev /= float64(len(ds.YahooIndex))
		rows = append(rows, row{w, len(answers.ForWorker(w)), dev})
	}
	sort.Slice(rows, func(i, j int) bool { // by answers, ties by ID: rows come in map order
		return rows[i].answered > rows[j].answered || rows[i].answered == rows[j].answered && rows[i].id < rows[j].id
	})
	fmt.Println("top workers (answers, |trueQ-estQ| over dataset domains):")
	for i, rw := range rows {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-8s %4d answers  dev %.3f\n", rw.id, rw.answered, rw.dev)
	}
}
