// Package experiment reproduces every table and figure of the paper's
// evaluation (Section 6). Each experiment function returns a Table whose
// rows mirror what the paper plots; cmd/docs-bench prints them and
// bench_test.go wraps them as Go benchmarks. All experiments are seeded and
// deterministic.
//
// Absolute numbers differ from the paper (the substrate is a simulator, not
// AMT + Freebase), but the qualitative shapes are asserted by the test
// suite: DOCS beats the baselines where the paper says it does, Algorithm 1
// dominates enumeration, scalability curves are linear, and convergence is
// fast.
package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"docs/internal/assign"
	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/dve"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/truth"
)

// Table is one experiment's output: a titled grid of cells.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed under the table (caveats, parameters).
	Notes []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("=", len(t.Title)))
	b.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	var total int
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float with 3 decimals; pct as a percentage.
func f3(x float64) string  { return fmt.Sprintf("%.3f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// Prepared bundles a generated dataset with everything the experiments
// need: DVE-computed domain vectors, linked entities, a worker population,
// collected answers, and golden-task initialisation.
type Prepared struct {
	*dataset.Dataset
	M int
	// Entities[i] is the DVE input of task i (linked entities, candidates
	// possibly padded to top-c).
	Entities [][]dve.Entity
	// Pop is the simulated worker population.
	Pop *crowd.Population
	// Answers are the fixed-redundancy collected answers (Section 6.1).
	Answers *model.AnswerSet
	// Golden are the selected golden tasks (disjoint from inference; the
	// paper reserves 20 per dataset).
	Golden []*model.Task
	// GoldenAnswers are every worker's answers to the golden tasks.
	GoldenAnswers map[string][]model.Answer
	// InitQuality / InitStats are derived from the golden answers.
	InitQuality map[string]model.QualityVector
	InitStats   map[string]*truth.Stats
	// Main are the non-golden tasks truth inference runs over.
	Main []*model.Task
}

// Options tunes Prepare.
type Options struct {
	Seed           uint64
	Workers        int // population size (default 50)
	AnswersPerTask int // redundancy (default 10)
	GoldenCount    int // golden tasks (default 20)
	SkipCollect    bool
}

// Prepare generates the named dataset and runs the full pre-experiment
// pipeline: DVE, golden selection, population draw, golden answering,
// quality initialisation and fixed-redundancy answer collection.
func Prepare(name string, opt Options) (*Prepared, error) {
	if opt.Workers <= 0 {
		opt.Workers = 50
	}
	if opt.AnswersPerTask <= 0 {
		opt.AnswersPerTask = crowd.DefaultAnswersPerTask
	}
	if opt.GoldenCount == 0 {
		opt.GoldenCount = 20
	}
	ds, err := dataset.ByName(name, opt.Seed)
	if err != nil {
		return nil, err
	}
	k := kb.MustDefault()
	m := k.Domains().Size()
	linker := entitylink.New(k)

	p := &Prepared{Dataset: ds, M: m, Entities: make([][]dve.Entity, len(ds.Tasks))}
	for i, t := range ds.Tasks {
		ents := dve.FromLinked(linker.Link(t.Text), m)
		p.Entities[i] = ents
		t.Domain = dve.Normalized(ents, m)
	}

	// Golden selection among all tasks (they all carry synthetic truth);
	// golden tasks are excluded from inference.
	goldenSet := make(map[int]bool)
	if opt.GoldenCount > 0 {
		for _, idx := range assign.SelectGolden(ds.Tasks, opt.GoldenCount, m) {
			goldenSet[ds.Tasks[idx].ID] = true
			p.Golden = append(p.Golden, ds.Tasks[idx])
		}
	}
	for _, t := range ds.Tasks {
		if !goldenSet[t.ID] {
			p.Main = append(p.Main, t)
		}
	}

	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers:      opt.Workers,
		M:               m,
		RelevantDomains: ds.YahooIndex,
		Seed:            opt.Seed ^ 0xf00d,
	})
	if err != nil {
		return nil, err
	}
	p.Pop = pop

	p.GoldenAnswers = crowd.AnswerGolden(p.Golden, pop)
	p.InitStats = make(map[string]*truth.Stats, len(p.GoldenAnswers))
	for w, as := range p.GoldenAnswers {
		p.InitStats[w] = truth.EstimateFromGolden(p.Golden, as, m)
	}
	p.InitQuality = qualityOf(p.InitStats)

	if !opt.SkipCollect {
		p.Answers, err = crowd.Collect(p.Main, pop, opt.AnswersPerTask)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// qualityOf is the Options.InitQuality map of golden estimates: each
// worker's Q, copied so that nothing the two maps are handed to shares it.
func qualityOf(stats map[string]*truth.Stats) map[string]model.QualityVector {
	out := make(map[string]model.QualityVector, len(stats))
	for w, st := range stats {
		out[w] = slices.Clone(st.Q)
	}
	return out
}

// ScalarInit averages a quality vector into the scalar reliability the
// ZC/QASCA baselines consume, weighting by the golden tasks' domain mass.
func ScalarInit(init map[string]model.QualityVector) map[string]float64 {
	out := make(map[string]float64, len(init))
	for w, q := range init {
		out[w] = mathx.Sum(q) / float64(len(q))
	}
	return out
}

// SubsampleAnswers keeps only the first n answers per task, mimicking the
// paper's "varying #collected answers" sweep (Figure 4(c)).
func SubsampleAnswers(as *model.AnswerSet, n int) *model.AnswerSet {
	out := model.NewAnswerSet()
	for _, id := range as.Tasks() {
		list := as.ForTask(id)
		if len(list) > n {
			list = list[:n]
		}
		for _, a := range list {
			if err := out.Add(a); err != nil {
				panic(err) // impossible: subsampling a valid set
			}
		}
	}
	return out
}

// EvalDomainAccuracy scores detected Yahoo-domain indices against the
// dataset's labelled domains, overall and per evaluation domain.
func EvalDomainAccuracy(ds *dataset.Dataset, detected []int) (overall float64, perDomain []float64) {
	correct := make([]int, ds.NumDomains())
	total := make([]int, ds.NumDomains())
	allCorrect := 0
	for i := range ds.Tasks {
		lbl := ds.EvalLabel[i]
		total[lbl]++
		if detected[i] == ds.YahooIndex[lbl] {
			correct[lbl]++
			allCorrect++
		}
	}
	perDomain = make([]float64, ds.NumDomains())
	for d := range perDomain {
		if total[d] > 0 {
			perDomain[d] = float64(correct[d]) / float64(total[d])
		}
	}
	return float64(allCorrect) / float64(len(ds.Tasks)), perDomain
}

// MapLatentToEval maps latent topic IDs to evaluation domains by majority
// vote against the ground-truth labels — the "manual mapping" the paper
// performs for IC and FC — and returns the detected Yahoo-domain index per
// task under that mapping.
func MapLatentToEval(ds *dataset.Dataset, latent []int, nLatent int) []int {
	votes := make([]map[int]int, nLatent)
	for i := range votes {
		votes[i] = make(map[int]int)
	}
	for i, z := range latent {
		votes[z][ds.EvalLabel[i]]++
	}
	mapping := make([]int, nLatent)
	for z := range mapping {
		best, bestC := 0, -1
		for lbl, c := range votes[z] {
			if c > bestC {
				best, bestC = lbl, c
			}
		}
		mapping[z] = best
	}
	out := make([]int, len(latent))
	for i, z := range latent {
		out[i] = ds.YahooIndex[mapping[z]]
	}
	return out
}
