package experiment

import (
	"strconv"
	"strings"
	"testing"

	"docs/internal/baselines"
	"docs/internal/crowd"
	"docs/internal/model"
	"docs/internal/truth"
)

const testSeed = 20160412

func TestTableFormat(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Notes:  []string{"n"},
	}
	tb.AddRow("1", "2")
	out := tb.Format()
	for _, want := range []string{"T\n", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestPrepare(t *testing.T) {
	p, err := Prepare("Item", Options{Seed: testSeed, Workers: 20, AnswersPerTask: 4, GoldenCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Golden) != 10 {
		t.Errorf("golden = %d, want 10", len(p.Golden))
	}
	if len(p.Main)+len(p.Golden) != len(p.Tasks) {
		t.Errorf("main %d + golden %d != %d", len(p.Main), len(p.Golden), len(p.Tasks))
	}
	if p.Answers.Len() != 4*len(p.Main) {
		t.Errorf("collected %d answers, want %d", p.Answers.Len(), 4*len(p.Main))
	}
	if len(p.InitQuality) != 20 {
		t.Errorf("init quality for %d workers, want 20", len(p.InitQuality))
	}
	for _, tk := range p.Tasks {
		if tk.Domain == nil {
			t.Fatalf("task %d has no DVE vector", tk.ID)
		}
	}
}

func TestPrepareUnknownDataset(t *testing.T) {
	if _, err := Prepare("nope", Options{}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// parsePct turns "93.4%" back into 0.934 for assertions on table cells.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.Fields(cell)[0], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not a percentage: %v", cell, err)
	}
	return v / 100
}

// TestFig3Shape asserts the Figure 3 headline: on Item every method
// detects domains well; on 4D/QA/SFV (varied intra-domain text) DOCS stays
// high while at least one topic-model baseline collapses, and DOCS wins
// overall on every dataset.
func TestFig3Shape(t *testing.T) {
	tb, err := Fig3DomainDetection(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	overall := map[string][3]float64{} // ic, fc, docs
	for _, row := range tb.Rows {
		if row[1] != "OVERALL" {
			continue
		}
		overall[row[0]] = [3]float64{parsePct(t, row[2]), parsePct(t, row[3]), parsePct(t, row[4])}
	}
	for name, o := range overall {
		ic, fc, docs := o[0], o[1], o[2]
		if docs < 0.85 {
			t.Errorf("%s: DOCS overall %.2f, want >= 0.85", name, docs)
		}
		if docs+0.02 < ic || docs+0.02 < fc {
			t.Errorf("%s: DOCS %.2f loses to a topic model (IC %.2f, FC %.2f)", name, docs, ic, fc)
		}
	}
	for _, name := range []string{"QA", "SFV", "4D"} {
		o, ok := overall[name]
		if !ok {
			continue
		}
		if o[2] < o[0]+0.05 && o[2] < o[1]+0.05 {
			t.Errorf("%s: DOCS %.2f does not clearly beat IC %.2f / FC %.2f on varied text", name, o[2], o[0], o[1])
		}
	}
}

func TestTable3Shape(t *testing.T) {
	tb, err := Table3DVE(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	// The synthetic |Et|=8 row must show enumeration as infeasible.
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.HasPrefix(last[3], "est.") {
		t.Errorf("synthetic row enumeration = %q, want an estimate (infeasible)", last[3])
	}
}

func TestFig4aConverges(t *testing.T) {
	tb, err := Fig4aConvergence(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c < len(first); c++ {
		f, _ := strconv.ParseFloat(first[c], 64)
		l, _ := strconv.ParseFloat(last[c], 64)
		if l > f+1e-9 {
			t.Errorf("column %d: Δ grew from %g to %g", c, f, l)
		}
		if l > 0.01 {
			t.Errorf("column %d: final Δ = %g, want < 0.01", c, l)
		}
	}
}

func TestFig4cMoreAnswersHelp(t *testing.T) {
	tb, err := Fig4cAnswersPerTask(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c < len(first); c++ {
		lo := parsePct(t, first[c])
		hi := parsePct(t, last[c])
		if hi+0.03 < lo {
			t.Errorf("column %d: accuracy fell from %.2f (few answers) to %.2f (many)", c, lo, hi)
		}
	}
}

func TestFig4dDeviationShrinks(t *testing.T) {
	tb, err := Fig4dWorkerQuality(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c < len(first); c++ {
		lo, _ := strconv.ParseFloat(first[c], 64)
		hi, _ := strconv.ParseFloat(last[c], 64)
		if hi > lo+0.02 {
			t.Errorf("column %d: deviation grew from %.3f to %.3f with more answers", c, lo, hi)
		}
		if hi > 0.15 {
			t.Errorf("column %d: deviation %.3f with 100 answers, want <= 0.15", c, hi)
		}
	}
}

// TestFig5Shape asserts the Figure 5(a) headline: DOCS is at least as good
// as every competitor on every dataset tested.
func TestFig5Shape(t *testing.T) {
	tb, err := Fig5TruthInference(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	for _, row := range tb.Rows {
		docs := parsePct(t, row[len(row)-1])
		for c := 1; c < len(row)-1; c++ {
			other := parsePct(t, row[c])
			if docs+0.015 < other {
				t.Errorf("%s: DOCS %.3f below %s %.3f", row[0], docs, tb.Header[c], other)
			}
		}
		if docs < 0.85 {
			t.Errorf("%s: DOCS accuracy %.3f, want >= 0.85", row[0], docs)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	tb, err := Fig6CaseStudy(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	if len(tb.Rows) < 6 {
		t.Errorf("case study produced only %d rows", len(tb.Rows))
	}
}

func TestFig7aNearOptimal(t *testing.T) {
	tb, err := Fig7aGoldenSelection(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	for _, row := range tb.Rows {
		gamma, _ := strconv.ParseFloat(row[3], 64)
		if gamma > 0.05 {
			t.Errorf("n'=%s: gamma %.4f, want <= 0.05", row[0], gamma)
		}
	}
}

func TestFig7bRuns(t *testing.T) {
	tb, err := Fig7bGoldenScalability(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
}

// TestFig8Shape asserts the Figure 8(a) headline at quick scale: DOCS is
// not beaten by any competitor by more than noise.
func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation is slow")
	}
	tb, err := Fig8Assignment(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	for _, row := range tb.Rows {
		docs := parsePct(t, row[len(row)-1])
		for c := 1; c < len(row)-1; c++ {
			other := parsePct(t, row[c])
			if docs+0.03 < other {
				t.Errorf("%s: DOCS %.3f below %s %.3f", row[0], docs, tb.Header[c], other)
			}
		}
	}
}

func TestFig8cRuns(t *testing.T) {
	tb, err := Fig8cOTAScalability(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
}

func TestFig4bGoldenHelps(t *testing.T) {
	tb, err := Fig4bGoldenTasks(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	// Accuracy with 20 golden tasks must not be materially below 0 golden.
	first := tb.Rows[0]
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c < len(first); c++ {
		none := parsePct(t, first[c])
		some := parsePct(t, last[c])
		if some+0.03 < none {
			t.Errorf("column %d: golden init hurt: %.3f -> %.3f", c, none, some)
		}
	}
}

func TestFig4eRuns(t *testing.T) {
	tb, err := Fig4eTIScalability(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
}

// TestRunCampaignProtocol checks the shared campaign loop enforces the
// redundancy cap and no-repeat rule for the served DOCS arm.
func TestRunCampaignProtocol(t *testing.T) {
	p, err := Prepare("Item", Options{Seed: testSeed, Workers: 15, SkipCollect: true})
	if err != nil {
		t.Fatal(err)
	}
	tasks := p.Main[:40]
	a := newServedDOCS(p.M, 3, 5, p.InitStats)
	res, err := RunCampaign(a, tasks, p.Pop, 200, 3, 5, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "DOCS" {
		t.Errorf("method = %s", res.Method)
	}
	if res.Accuracy < 0.6 {
		t.Errorf("campaign accuracy %.3f suspiciously low", res.Accuracy)
	}
}

// shortTruth is an Assigner whose Finalize drops the last task's truth.
type shortTruth struct{ *baselines.RandomAssigner }

func (s shortTruth) Finalize() ([]int, error) {
	truths, err := s.RandomAssigner.Finalize()
	return truths[:len(truths)-1], err
}

// TestRunCampaignRejectsShortTruth: a method must infer one truth per
// task; a short vector would score its missing tail as wrong answers.
func TestRunCampaignRejectsShortTruth(t *testing.T) {
	p, err := Prepare("Item", Options{Seed: testSeed, Workers: 15, SkipCollect: true})
	if err != nil {
		t.Fatal(err)
	}
	a := shortTruth{baselines.NewRandomAssigner(testSeed)}
	if _, err := RunCampaign(a, p.Main[:40], p.Pop, 200, 3, 5, testSeed); err == nil {
		t.Error("a Finalize with 39 truths for 40 tasks was scored")
	}
}

// TestDOCSAssignerInterfaceCompliance ensures the served arm satisfies the
// baselines contract.
func TestDOCSAssignerInterfaceCompliance(t *testing.T) {
	var _ baselines.Assigner = newServedDOCS(2, 3, 5, nil)
	var _ baselines.Assigner = baselines.NewDMaxAssigner(2, map[string]*truth.Stats{})
}

// checkedArm wraps an Assigner and fails the test when a HIT holds an ID
// outside the visit's candidates, or comes back short while at least k
// candidates were open.
type checkedArm struct {
	baselines.Assigner
	t      *testing.T
	visits int
}

func (c *checkedArm) Assign(workerID string, candidates []int, k int) []int {
	got := c.Assigner.Assign(workerID, candidates, k)
	c.visits++
	open := make(map[int]bool, len(candidates))
	for _, id := range candidates {
		open[id] = true
	}
	for _, id := range got {
		if !open[id] {
			c.t.Errorf("visit %d: %s served task %d, not a harness candidate", c.visits, workerID, id)
		}
	}
	if len(candidates) >= k && len(got) < k {
		c.t.Errorf("visit %d: %s got %d of k = %d tasks with %d candidates", c.visits, workerID, len(got), k, len(candidates))
	}
	return got
}

// TestServedDOCSServesHarnessCandidates: on every visit the served core
// picks among exactly the harness's eligible tasks — under the cap and not
// yet answered by the worker — so handing DOCS no candidate list departs
// from the protocol nowhere. Covers the quick Figure 8 Item campaign, the
// ablation's DOCS and -golden arms, and the grid's clean and spam-30% mixes.
func TestServedDOCSServesHarnessCandidates(t *testing.T) {
	run := func(name string, a *servedDOCS, tasks []*model.Task, pop *crowd.Population, total, k, cap int) {
		c := &checkedArm{Assigner: a, t: t}
		if _, err := RunCampaign(c, tasks, pop, total, k, cap, testSeed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.visits == 0 {
			t.Fatalf("%s: no visit reached the arm", name)
		}
	}
	p, err := Prepare("Item", Options{Seed: testSeed, SkipCollect: true})
	if err != nil {
		t.Fatal(err)
	}
	tasks, total := fig8Tasks(p, true)
	run("fig8 Item (DOCS)", newServedDOCS(p.M, fig8K, fig8Cap, p.InitStats), tasks, p.Pop, total, fig8K, fig8Cap)
	run("ablation -golden", newServedDOCS(p.M, fig8K, fig8Cap, nil), tasks, p.Pop, total, fig8K, fig8Cap)

	sz := accuracySizesFor(true)
	main, golden := accuracyTasks(testSeed, sz)
	for _, mix := range accuracyMixes() {
		if mix.Name != "clean" && mix.Name != "spam-30%" {
			continue
		}
		pop, err := accuracyPop(testSeed, sz, mix.Adv)
		if err != nil {
			t.Fatal(err)
		}
		_, stats := goldenProfile(pop, golden, sz.m)
		run("accuracy "+mix.Name, newServedDOCS(sz.m, fig8K, sz.redundancy, stats), main, pop, sz.budgetPerTask*len(main), fig8K, sz.redundancy)
	}
}

// TestAblationShape: the full system must not lose to any ablated variant
// by more than noise, and the variants must all stay above the random-ish
// floor.
func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign simulation is slow")
	}
	tb, err := AblationStudy(testSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tb.Format())
	for _, row := range tb.Rows {
		full := parsePct(t, row[1])
		for c := 2; c < len(row); c++ {
			if v := parsePct(t, row[c]); full+0.03 < v {
				t.Errorf("%s: full DOCS %.3f below %s %.3f", row[0], full, tb.Header[c], v)
			}
		}
	}
}
