package experiment

import (
	"errors"
	"fmt"
	"time"

	"docs/internal/assign"
	"docs/internal/baselines"
	"docs/internal/core"
	"docs/internal/crowd"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/registry"
	"docs/internal/truth"
)

// servedCampaign names the one campaign a servedDOCS arm hosts.
const servedCampaign = "docs"

// servedDOCS is the DOCS arm of every campaign experiment: a
// baselines.Assigner that drives the serving core docs-server runs — a
// memory-only registry hosting one campaign, with the core's periodic rerun
// every z = 100 answers, its candidate index, pinned anchors and worker
// store. Assign is Request, Observe is Submit and Finalize is Results, each
// through Registry.Do.
type servedDOCS struct {
	m, k, cap int
	// profiles are the golden-task statistics seeded into the worker store
	// before publication — every worker arrives as a returning, profiled
	// worker. Nil runs the arm without golden profiling.
	profiles map[string]*truth.Stats
	// pick, when set, chooses each HIT from the harness's candidates in
	// place of Request; the answers still flow through the served core.
	pick baselines.Assigner
	reg  *registry.Registry
	err  error // the first Request failure, reported by Finalize
}

// newServedDOCS returns the served DOCS arm over m domains with HITs of k
// tasks and at most cap answers a task.
func newServedDOCS(m, k, cap int, profiles map[string]*truth.Stats) *servedDOCS {
	return &servedDOCS{m: m, k: k, cap: cap, profiles: profiles}
}

// Name implements baselines.Assigner.
func (d *servedDOCS) Name() string { return "DOCS" }

// Init implements baselines.Assigner: open the registry, seed the worker
// store and publish copies of the tasks (Publish shares their domain
// vectors in place). A failed Init closes the registry it opened.
func (d *servedDOCS) Init(tasks []*model.Task) (err error) {
	if d.pick != nil {
		if err := d.pick.Init(tasks); err != nil {
			return err
		}
	}
	names := make([]string, d.m)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
	}
	reg, err := registry.Open(registry.Config{Campaign: core.Config{
		KB:             kb.New(model.MustDomainSet(names)),
		GoldenCount:    -1,
		HITSize:        d.k,
		AnswersPerTask: d.cap,
	}})
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, reg.Close())
		}
	}()
	d.reg = reg
	for w, st := range d.profiles {
		if err := reg.Store().Put(w, st); err != nil {
			return err
		}
	}
	published := make([]*model.Task, len(tasks))
	for i, t := range tasks {
		c := *t
		published[i] = &c
	}
	if err := reg.Create(servedCampaign); err != nil {
		return err
	}
	return reg.Do(servedCampaign, func(s *core.System) error { return s.Publish(published) })
}

// Assign implements baselines.Assigner: the served core's top-k benefit
// request (Theorems 2–4) over its own candidate index.
func (d *servedDOCS) Assign(workerID string, candidates []int, k int) []int {
	if d.pick != nil {
		return d.pick.Assign(workerID, candidates, k)
	}
	var ids []int
	err := d.reg.Do(servedCampaign, func(s *core.System) error {
		got, err := s.Request(workerID, k)
		for _, t := range got {
			ids = append(ids, t.ID)
		}
		return err
	})
	if err != nil && d.err == nil {
		d.err = err
	}
	return ids
}

// Observe implements baselines.Assigner.
func (d *servedDOCS) Observe(a model.Answer) error {
	if d.pick != nil {
		if err := d.pick.Observe(a); err != nil {
			return err
		}
	}
	return d.reg.Do(servedCampaign, func(s *core.System) error { return s.Submit(a.Worker, a.Task, a.Choice) })
}

// Finalize implements baselines.Assigner: the served Results, one truth per
// published task in publication order, then the registry closes.
func (d *servedDOCS) Finalize() ([]int, error) {
	var res *truth.Result
	err := d.reg.Do(servedCampaign, func(s *core.System) (err error) {
		res, err = s.Results()
		return err
	})
	err = errors.Join(d.err, err, d.reg.Close())
	if err != nil {
		return nil, err
	}
	return res.Truth, nil
}

// Fig7aGoldenSelection reproduces Figure 7(a): execution time of the
// approximate golden-task allocator vs exhaustive enumeration for
// n' ∈ [4, 20], m = 10, plus the average approximation ratio γ.
func Fig7aGoldenSelection(seed uint64, quick bool) (*Table, error) {
	sizes := []int{4, 8, 12, 16, 20}
	if quick {
		sizes = []int{4, 8}
	}
	t := &Table{
		Title:  "Figure 7(a): Golden Task Selection — DOCS vs Enumeration (m=10)",
		Header: []string{"n'", "DOCS", "Enumeration", "gamma"},
		Notes:  []string{"gamma = |D - D_opt| / D_opt over the run's random tau"},
	}
	r := mathx.NewRand(seed ^ 0x901d)
	const m = 10
	for _, n := range sizes {
		tau := r.Dirichlet(m, 1.2)
		var approx []int
		dApprox := timeIt(func() { approx = assign.GoldenAllocation(tau, n) })
		var exact []int
		dExact := timeIt(func() { exact = assign.GoldenAllocationExact(tau, n) })
		da := assign.GoldenObjective(approx, tau)
		de := assign.GoldenObjective(exact, tau)
		gamma := 0.0
		if de > 0 {
			gamma = (da - de) / de
		}
		t.AddRow(fmt.Sprintf("%d", n), dApprox.String(), dExact.String(), fmt.Sprintf("%.4f", gamma))
	}
	return t, nil
}

// Fig7bGoldenScalability reproduces Figure 7(b): approximate allocator time
// vs n' ∈ [1K, 10K] for m ∈ {10, 20, 50} — flat in n', as the paper shows.
func Fig7bGoldenScalability(seed uint64, quick bool) (*Table, error) {
	sizes := []int{1000, 4000, 7000, 10000}
	ms := []int{10, 20, 50}
	if quick {
		sizes = []int{1000, 4000}
		ms = []int{10, 20}
	}
	t := &Table{
		Title:  "Figure 7(b): Golden Task Selection Scalability",
		Header: []string{"n'"},
	}
	for _, m := range ms {
		t.Header = append(t.Header, fmt.Sprintf("m=%d", m))
	}
	r := mathx.NewRand(seed ^ 0x901e)
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range ms {
			tau := r.Dirichlet(m, 1.2)
			d := timeIt(func() { assign.GoldenAllocation(tau, n) })
			row = append(row, d.String())
		}
		t.AddRow(row...)
	}
	return t, nil
}

// CampaignResult is one method's outcome in the Figure 8 comparison.
type CampaignResult struct {
	Method      string
	Accuracy    float64
	WorstAssign time.Duration
}

// RunCampaign drives one assigner through a full simulated campaign under
// the Section 6.1 protocol: arriving workers receive k eligible tasks
// (below the redundancy cap, not previously answered by them) until
// totalAnswers are collected, then the method's own inference runs.
func RunCampaign(a baselines.Assigner, tasks []*model.Task, pop *crowd.Population, totalAnswers, k, cap int, seed uint64) (*CampaignResult, error) {
	if err := a.Init(tasks); err != nil {
		return nil, err
	}
	r := mathx.NewRand(seed ^ 0xca4b)
	counts := make(map[int]int, len(tasks))
	answered := make(map[string]map[int]bool)
	var worst time.Duration

	collected := 0
	stuck := 0
	for collected < totalAnswers && stuck < 10*len(pop.Workers) {
		w := pop.Workers[r.Intn(len(pop.Workers))]
		if answered[w.ID] == nil {
			answered[w.ID] = make(map[int]bool)
		}
		candidates := make([]int, 0, len(tasks))
		for _, tk := range tasks {
			if counts[tk.ID] < cap && !answered[w.ID][tk.ID] {
				candidates = append(candidates, tk.ID)
			}
		}
		if len(candidates) == 0 {
			stuck++
			continue
		}
		//docs:allow clock experiment wall-clock measurement; timings are report output, not state
		start := time.Now()
		got := a.Assign(w.ID, candidates, k)
		//docs:allow clock experiment wall-clock measurement; timings are report output, not state
		if d := time.Since(start); d > worst {
			worst = d
		}
		if len(got) == 0 {
			stuck++
			continue
		}
		stuck = 0
		for _, id := range got {
			tk := tasks[taskIndex(tasks, id)]
			if err := a.Observe(model.Answer{Worker: w.ID, Task: id, Choice: w.Answer(tk, r)}); err != nil {
				return nil, err
			}
			answered[w.ID][id] = true
			counts[id]++
			collected++
		}
	}
	inferred, err := a.Finalize()
	if err != nil {
		return nil, err
	}
	if len(inferred) != len(tasks) {
		return nil, fmt.Errorf("experiment: %s inferred %d truths for %d tasks", a.Name(), len(inferred), len(tasks))
	}
	acc, _ := truth.Accuracy(tasks, inferred)
	return &CampaignResult{Method: a.Name(), Accuracy: acc, WorstAssign: worst}, nil
}

func taskIndex(tasks []*model.Task, id int) int {
	// Tasks keep ID == position for generated datasets, but don't rely on it.
	if id >= 0 && id < len(tasks) && tasks[id].ID == id {
		return id
	}
	for i, t := range tasks {
		if t.ID == id {
			return i
		}
	}
	return -1
}

// fig8K and fig8Cap are the Figure 8 protocol's HIT size and per-task
// answer cap.
const fig8K, fig8Cap = 3, 10

// fig8Tasks returns the tasks and answer budget of one Figure 8 campaign
// on p. The budget sits below the saturation point (cap × n) so each
// method's allocation strategy matters: smart assigners can give hard
// tasks more answers by giving settled tasks fewer. At exact saturation
// every method collects the identical multiset of (task, 10 answers) and
// the comparison degenerates to final-inference noise.
func fig8Tasks(p *Prepared, quick bool) (tasks []*model.Task, total int) {
	tasks = p.Main
	if quick && len(tasks) > 120 {
		tasks = tasks[:120]
	}
	return tasks, 7 * len(tasks)
}

// Fig8Assignment reproduces Figure 8(a)(b): end-to-end accuracy and
// worst-case assignment time of Baseline, AskIt!, IC, QASCA, D-Max and
// DOCS on each dataset. Each method runs its own campaign (k = 3 per HIT,
// redundancy 10) against the same worker population, mirroring the paper's
// parallel-assignment protocol.
func Fig8Assignment(seed uint64, quick bool) (*Table, error) {
	t := &Table{
		Title:  "Figure 8(a)(b): Online Task Assignment comparison (accuracy / worst-case assign time)",
		Header: []string{"Dataset", "Baseline", "AskIt!", "IC", "QASCA", "D-Max", "DOCS"},
	}
	names := quickNames(quick)
	for _, name := range names {
		p, err := Prepare(name, Options{Seed: seed, SkipCollect: true})
		if err != nil {
			return nil, err
		}
		tasks, total := fig8Tasks(p, quick)
		scalarInit := ScalarInit(p.InitQuality)

		// IC gets its latent domains from LDA (its own pipeline).
		ldaIters := 200
		if quick {
			ldaIters = 60
		}
		ic := &baselines.IC{Topics: p.NumDomains(), LDAIters: ldaIters, Seed: seed}

		assigners := []baselines.Assigner{
			baselines.NewRandomAssigner(seed),
			baselines.NewAskItAssigner(),
			baselines.NewICAssigner(ic),
			baselines.NewQASCAAssigner(scalarInit),
			baselines.NewDMaxAssigner(p.M, p.InitStats),
			newServedDOCS(p.M, fig8K, fig8Cap, p.InitStats),
		}
		row := []string{name}
		for _, a := range assigners {
			res, err := RunCampaign(a, tasks, p.Pop, total, fig8K, fig8Cap, seed)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name(), name, err)
			}
			row = append(row, fmt.Sprintf("%s / %s", pct(res.Accuracy), roundDur(res.WorstAssign)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig8cOTAScalability reproduces Figure 8(c): assignment time vs number of
// tasks n ∈ [2K, 10K] for k ∈ {5, 10, 50}, m = 20, with random task states
// and a random worker — linear in n, flat in k.
func Fig8cOTAScalability(seed uint64, quick bool) (*Table, error) {
	sizes := []int{2000, 4000, 6000, 8000, 10000}
	ks := []int{5, 10, 50}
	if quick {
		sizes = []int{500, 1000}
		ks = []int{5, 10}
	}
	t := &Table{
		Title:  "Figure 8(c): Scalability of OTA (simulation, m=20)",
		Header: []string{"#Tasks"},
	}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
	}
	r := mathx.NewRand(seed ^ 0x8c)
	const m = 20
	for _, n := range sizes {
		states := make([]assign.TaskState, n)
		for i := range states {
			ts := &states[i]
			*ts = assign.TaskState{ID: i, R: model.DomainVector(r.Dirichlet(m, 0.5))}
			s := make([]float64, 2)
			for kk, rk := range ts.R {
				if !ts.R.Has(kk) {
					continue // M holds a row per domain of the support only
				}
				row := r.Dirichlet(2, 1)
				ts.M = append(ts.M, row)
				for j := range s {
					s[j] += rk * row[j]
				}
			}
			ts.S = mathx.Normalize(s)
		}
		q := make(model.QualityVector, m)
		for i := range q {
			q[i] = r.Range(0.4, 0.95)
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, k := range ks {
			d := timeIt(func() { new(assign.Assigner).AssignStates(states, q, k) })
			row = append(row, d.String())
		}
		t.AddRow(row...)
	}
	return t, nil
}
