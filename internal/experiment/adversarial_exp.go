package experiment

import (
	"fmt"

	"docs/internal/baselines"
	"docs/internal/crowd"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/truth"
)

// The accuracy experiment turns the paper's robustness story into a tracked
// benchmark: for each adversarial population mix (docs/experiments.md), run
// DOCS against the baseline competitors twice —
//
//	inference: all methods score the SAME fixed-redundancy answer set
//	           (MV, IC and FC with their paper-favored inputs, DOCS with
//	           golden-task initialisation), isolating truth inference;
//	campaign:  each assigner runs its own end-to-end campaign under the
//	           Figure 8 protocol (fresh same-seed population per method, so
//	           sleeper phase switches and drift replay identically),
//	           isolating online task assignment.
//
// Everything is a pure function of the seed; cmd/docs-bench commits the
// result as bench/BENCH_accuracy.json and scripts/check_bench.sh gates the
// DOCS−MV margin at every spammer fraction against the committed copy.

// AccuracyRow is one (mix, mode, method) cell of the accuracy experiment.
type AccuracyRow struct {
	Mix             string  `json:"mix"`
	SpammerFraction float64 `json:"spammer_fraction"`
	Mode            string  `json:"mode"` // "inference" | "campaign"
	Method          string  `json:"method"`
	Accuracy        float64 `json:"accuracy"`
	// Degradation is the clean-mix accuracy of the same (mode, method)
	// minus this row's — how much this population mix costs the method.
	Degradation float64 `json:"degradation_vs_clean"`
}

// AccuracyMargin is the guard's unit: DOCS minus majority vote on the
// shared answer set at one spammer fraction.
type AccuracyMargin struct {
	Mix             string  `json:"mix"`
	SpammerFraction float64 `json:"spammer_fraction"`
	DOCS            float64 `json:"docs"`
	MV              float64 `json:"mv"`
	DOCSMinusMV     float64 `json:"docs_minus_mv"`
}

// AccuracyResult is the committed artifact. It intentionally carries no
// timings or other machine-dependent values: two runs with the same seed
// must serialize byte-identically (asserted by a regression test).
type AccuracyResult struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	Tasks      int    `json:"tasks"`
	Workers    int    `json:"workers"`
	Redundancy int    `json:"redundancy"`
	Golden     int    `json:"golden"`
	Domains    int    `json:"domains"`
	Choices    int    `json:"choices"`

	Rows    []AccuracyRow    `json:"rows"`
	Margins []AccuracyMargin `json:"margins"`
}

type accSizes struct {
	tasks, workers, redundancy, golden, m, choices, budgetPerTask int
}

func accuracySizesFor(quick bool) accSizes {
	// Redundancy sits well below saturation (5, not the paper's 10): with 8+
	// answers per task every method nears 100% and the quality-weighting
	// margins the guard tracks vanish into noise.
	if quick {
		return accSizes{tasks: 200, workers: 60, redundancy: 5, golden: 20, m: 12, choices: 4, budgetPerTask: 4}
	}
	return accSizes{tasks: 600, workers: 120, redundancy: 5, golden: 20, m: 20, choices: 4, budgetPerTask: 4}
}

type accuracyMix struct {
	Name string
	Adv  crowd.Adversarial
	// SpamFrac and Gate mark the spammer-sweep mixes whose DOCS−MV margin
	// the bench guard enforces.
	SpamFrac float64
	Gate     bool
}

// accuracyMixes is the population sweep: a spammer-fraction family (gated)
// plus one mix per remaining archetype. Identical in quick and full mode so
// the committed quick artifact covers every row the guard reads.
func accuracyMixes() []accuracyMix {
	spam := func(f float64) accuracyMix {
		return accuracyMix{
			Name:     fmt.Sprintf("spam-%.0f%%", f*100),
			Adv:      crowd.Adversarial{SpammerFraction: f},
			SpamFrac: f,
			Gate:     true,
		}
	}
	return []accuracyMix{
		{Name: "clean", Gate: true},
		spam(0.10),
		spam(0.20),
		spam(0.30),
		{Name: "sleeper-30%", Adv: crowd.Adversarial{SleeperFraction: 0.3}},
		{Name: "clique-2x5", Adv: crowd.Adversarial{Cliques: 2, CliqueSize: 5}},
		{Name: "drift", Adv: crowd.Adversarial{DriftPerAnswer: -0.002}},
	}
}

// accuracyTasks builds the synthetic workload: one-hot domains over m,
// sz.choices-way choices (4-way, so spammer accuracy 1/ℓ = 0.25 sits well
// below any honest worker). The task stream is drawn independently of every
// population so all mixes score the identical task set.
func accuracyTasks(seed uint64, sz accSizes) (main, golden []*model.Task) {
	r := mathx.NewRand(seed ^ 0xacc7)
	choices := []string{"a", "b", "c", "d", "e", "f"}[:sz.choices]
	mk := func(id int) *model.Task {
		dom := make(model.DomainVector, sz.m)
		dom[r.Intn(sz.m)] = 1
		return &model.Task{
			ID: id, Choices: choices, Domain: dom,
			Truth: r.Intn(sz.choices), TrueDomain: model.NoTruth,
		}
	}
	for i := 0; i < sz.tasks; i++ {
		main = append(main, mk(i))
	}
	for i := 0; i < sz.golden; i++ {
		golden = append(golden, mk(sz.tasks+i))
	}
	return main, golden
}

func accuracyPop(seed uint64, sz accSizes, adv crowd.Adversarial) (*crowd.Population, error) {
	return crowd.NewPopulation(crowd.Config{
		NumWorkers:  sz.workers,
		M:           sz.m,
		Seed:        seed ^ 0xf00d,
		Adversarial: adv,
	})
}

// goldenProfile runs the golden gauntlet: every worker answers all golden
// tasks (20 of them — exactly a default sleeper's honest budget, so
// sleepers ace profiling and degrade immediately after, the attack the
// archetype models).
func goldenProfile(pop *crowd.Population, golden []*model.Task, m int) (map[string]model.QualityVector, map[string]*truth.Stats) {
	ga := crowd.AnswerGolden(golden, pop)
	stats := make(map[string]*truth.Stats, len(ga))
	for w, as := range ga {
		stats[w] = truth.EstimateFromGolden(golden, as, m)
	}
	return qualityOf(stats), stats
}

type accCell struct {
	method string
	acc    float64
}

// accuracyInference scores MV, IC (given true domains), FC (given true
// topics + golden scalar init) and DOCS (golden init) on one shared
// fixed-redundancy answer set from the mix's population.
func accuracyInference(seed uint64, sz accSizes, adv crowd.Adversarial) ([]accCell, error) {
	main, golden := accuracyTasks(seed, sz)
	pop, err := accuracyPop(seed, sz, adv)
	if err != nil {
		return nil, err
	}
	initQ, _ := goldenProfile(pop, golden, sz.m)
	answers, err := crowd.Collect(main, pop, sz.redundancy)
	if err != nil {
		return nil, err
	}
	scalar := ScalarInit(initQ)
	givenDomains := make([][]float64, len(main))
	givenTopics := make([]int, len(main))
	for i, tk := range main {
		givenDomains[i] = tk.Domain
		givenTopics[i] = tk.Domain.Top()
	}
	methods := []baselines.TruthInferrer{
		baselines.MV{},
		&baselines.IC{GivenDomains: givenDomains},
		&baselines.FC{GivenTopics: givenTopics, InitReliability: scalar},
	}
	var out []accCell
	for _, mth := range methods {
		inferred, err := mth.InferTruth(main, answers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mth.Name(), err)
		}
		acc, _ := truth.Accuracy(main, inferred)
		out = append(out, accCell{mth.Name(), acc})
	}
	res, err := truth.Infer(main, answers, sz.m, truth.Options{InitQuality: initQ})
	if err != nil {
		return nil, err
	}
	acc, _ := truth.Accuracy(main, res.Truth)
	out = append(out, accCell{"DOCS", acc})
	return out, nil
}

// accuracyCampaigns runs Baseline (random), D-Max and DOCS through the
// Figure 8 campaign protocol. Each method gets a FRESH population from the
// same seed: identical quality draws and archetype deals, and — because
// sleeper phases and drift depend on each worker's answer count — identical
// adversarial trajectories, so the comparison is apples-to-apples.
func accuracyCampaigns(seed uint64, sz accSizes, adv crowd.Adversarial) ([]accCell, error) {
	main, golden := accuracyTasks(seed, sz)
	methods := []struct {
		name string
		mk   func(stats map[string]*truth.Stats) baselines.Assigner
	}{
		{"Baseline", func(map[string]*truth.Stats) baselines.Assigner { return baselines.NewRandomAssigner(seed) }},
		{"D-Max", func(st map[string]*truth.Stats) baselines.Assigner { return baselines.NewDMaxAssigner(sz.m, st) }},
		{"DOCS", func(st map[string]*truth.Stats) baselines.Assigner {
			return newServedDOCS(sz.m, fig8K, sz.redundancy, st)
		}},
	}
	var out []accCell
	for _, mth := range methods {
		pop, err := accuracyPop(seed, sz, adv)
		if err != nil {
			return nil, err
		}
		_, stats := goldenProfile(pop, golden, sz.m)
		res, err := RunCampaign(mth.mk(stats), main, pop, sz.budgetPerTask*len(main), fig8K, sz.redundancy, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mth.name, err)
		}
		out = append(out, accCell{mth.name, res.Accuracy})
	}
	return out, nil
}

// AccuracyExperiment runs the full mix sweep and returns both the printable
// table and the committed artifact.
func AccuracyExperiment(seed uint64, quick bool) (*Table, *AccuracyResult, error) {
	sz := accuracySizesFor(quick)
	mixes := accuracyMixes()
	res := &AccuracyResult{
		Experiment: "accuracy",
		Seed:       seed,
		Quick:      quick,
		Tasks:      sz.tasks,
		Workers:    sz.workers,
		Redundancy: sz.redundancy,
		Golden:     sz.golden,
		Domains:    sz.m,
		Choices:    sz.choices,
	}
	tb := &Table{
		Title:  "Accuracy under adversarial crowds: DOCS vs baselines",
		Header: []string{"Mix", "MV", "IC", "FC", "DOCS(TI)", "Baseline", "D-Max", "DOCS(OTA)"},
		Notes: []string{
			fmt.Sprintf("inference columns share one fixed-redundancy answer set (%d answers/task, %d tasks, %d workers, %d-choice)",
				sz.redundancy, sz.tasks, sz.workers, sz.choices),
			fmt.Sprintf("campaign columns each run the Fig.8 protocol (budget %d×tasks, k=3, cap=%d) on a fresh same-seed population",
				sz.budgetPerTask, sz.redundancy),
			"the bench guard gates DOCS(TI) − MV at every spammer fraction against bench/BENCH_accuracy.json",
		},
	}
	for _, mix := range mixes {
		inf, err := accuracyInference(seed, sz, mix.Adv)
		if err != nil {
			return nil, nil, fmt.Errorf("accuracy %s inference: %w", mix.Name, err)
		}
		camp, err := accuracyCampaigns(seed, sz, mix.Adv)
		if err != nil {
			return nil, nil, fmt.Errorf("accuracy %s campaign: %w", mix.Name, err)
		}
		row := []string{mix.Name}
		for _, c := range inf {
			res.Rows = append(res.Rows, AccuracyRow{
				Mix: mix.Name, SpammerFraction: mix.SpamFrac,
				Mode: "inference", Method: c.method, Accuracy: c.acc,
			})
			row = append(row, pct(c.acc))
		}
		for _, c := range camp {
			res.Rows = append(res.Rows, AccuracyRow{
				Mix: mix.Name, SpammerFraction: mix.SpamFrac,
				Mode: "campaign", Method: c.method, Accuracy: c.acc,
			})
			row = append(row, pct(c.acc))
		}
		if mix.Gate {
			var docs, mv float64
			for _, c := range inf {
				switch c.method {
				case "DOCS":
					docs = c.acc
				case "MV":
					mv = c.acc
				}
			}
			res.Margins = append(res.Margins, AccuracyMargin{
				Mix: mix.Name, SpammerFraction: mix.SpamFrac,
				DOCS: docs, MV: mv, DOCSMinusMV: docs - mv,
			})
		}
		tb.AddRow(row...)
	}
	// Degradation vs the clean mix, per (mode, method).
	clean := make(map[string]float64)
	for _, r := range res.Rows {
		if r.Mix == "clean" {
			clean[r.Mode+"/"+r.Method] = r.Accuracy
		}
	}
	for i := range res.Rows {
		r := &res.Rows[i]
		r.Degradation = clean[r.Mode+"/"+r.Method] - r.Accuracy
	}
	return tb, res, nil
}
