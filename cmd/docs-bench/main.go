// Command docs-bench regenerates every table and figure of the paper's
// evaluation (Section 6) and prints them as text tables.
//
// Usage:
//
//	docs-bench                  # run everything at full scale
//	docs-bench -exp fig5        # one experiment
//	docs-bench -quick           # reduced sizes (seconds instead of minutes)
//	docs-bench -seed 42         # change the deterministic seed
//
// Experiments: table3, fig3, fig4a, fig4b, fig4c, fig4d, fig4e, fig5,
// fig6, fig7a, fig7b, fig8, fig8c, ablation, accuracy, density, all.
//
// accuracy and density go beyond the paper and are the two guards
// scripts/check_bench.sh gates, both machine-independent: accuracy is
// seeded and byte-deterministic, density compares two heap sizes from the
// same run. Serving timings are not measured here; `go run ./cmd/docs-perf`
// is the repository's one timing benchmark.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"docs/internal/experiment"
)

type runner struct {
	id  string
	fn  func(seed uint64, quick bool) (*experiment.Table, error)
	est string
}

var runners = []runner{
	{"table3", experiment.Table3DVE, "DVE efficiency: Algorithm 1 vs Enumeration"},
	{"fig3", experiment.Fig3DomainDetection, "domain detection accuracy: IC/FC/DOCS"},
	{"fig4a", experiment.Fig4aConvergence, "TI convergence"},
	{"fig4b", experiment.Fig4bGoldenTasks, "accuracy vs #golden tasks"},
	{"fig4c", experiment.Fig4cAnswersPerTask, "accuracy vs #answers per task"},
	{"fig4d", experiment.Fig4dWorkerQuality, "worker quality estimation deviation"},
	{"fig4e", experiment.Fig4eTIScalability, "TI scalability"},
	{"fig5", experiment.Fig5TruthInference, "truth inference comparison"},
	{"fig6", experiment.Fig6CaseStudy, "worker quality case study"},
	{"fig7a", experiment.Fig7aGoldenSelection, "golden selection vs enumeration"},
	{"fig7b", experiment.Fig7bGoldenScalability, "golden selection scalability"},
	{"fig8", experiment.Fig8Assignment, "online task assignment comparison"},
	{"fig8c", experiment.Fig8cOTAScalability, "OTA scalability"},
	{"ablation", experiment.AblationStudy, "contribution of each DOCS design choice"},
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (table3, fig3, ..., fig8c, ablation, accuracy, density, all)")
	seed := flag.Uint64("seed", 20160412, "deterministic seed")
	quick := flag.Bool("quick", false, "reduced sizes for a fast pass")
	accuracyJSON := flag.String("accuracy-json", "", "write the accuracy experiment's rows as JSON to this path (the BENCH_accuracy.json CI artifact)")
	densityCampaigns := flag.Int("density-campaigns", 0, "density experiment campaign count (0 = default 10000, quick 1200)")
	densityLive := flag.Int("density-live", 0, "density experiment MaxLiveCampaigns cap (0 = default 64, quick 16)")
	densityJSON := flag.String("density-json", "", "write the density experiment's report as JSON to this path (the BENCH_density.json CI artifact)")
	flag.Parse()

	runners := append(runners,
		runner{"accuracy", accuracyRunner(accuracyJSON), "adversarial crowds: DOCS vs MV/IC/FC/D-Max accuracy per population mix"},
		runner{"density", densityRun(densityCampaigns, densityLive, densityJSON), "campaign density: hibernating LRU cap vs all-live baseline, cold-wake latency"})
	ran := 0
	for _, r := range runners {
		if *exp != "all" && *exp != r.id {
			continue
		}
		ran++
		fmt.Printf("## %s — %s (seed=%d quick=%v)\n\n", r.id, r.est, *seed, *quick)
		start := time.Now()
		tb, err := r.fn(*seed, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docs-bench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println(tb.Format())
		fmt.Printf("(%s in %s)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "docs-bench: unknown experiment %q; known:", *exp)
		for _, r := range runners {
			fmt.Fprintf(os.Stderr, " %s", r.id)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}
