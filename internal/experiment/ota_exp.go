package experiment

import (
	"fmt"
	"time"

	"docs/internal/assign"
	"docs/internal/baselines"
	"docs/internal/crowd"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/truth"
)

// DOCSAssigner adapts the DOCS OTA module (benefit-based assignment over
// incremental truth inference) to the baselines.Assigner campaign
// interface so Figure 8 compares all six methods under identical rules.
type DOCSAssigner struct {
	m       int
	tasks   []*model.Task
	pos     map[int]int
	inc     *truth.Incremental
	stats   map[string]*truth.Stats
	answers *model.AnswerSet
	// LastAssignTime records the duration of the most recent Assign call
	// (Figure 8(b) reports the worst case).
	LastAssignTime time.Duration
}

// NewDOCSAssigner returns the DOCS assigner over m domains; initStats
// optionally seeds worker statistics from golden tasks.
func NewDOCSAssigner(m int, initStats map[string]*truth.Stats) *DOCSAssigner {
	return &DOCSAssigner{m: m, stats: initStats}
}

// Name implements baselines.Assigner.
func (d *DOCSAssigner) Name() string { return "DOCS" }

// Init implements baselines.Assigner.
func (d *DOCSAssigner) Init(tasks []*model.Task) error {
	d.tasks = tasks
	d.pos = make(map[int]int, len(tasks))
	d.inc = truth.NewIncremental(d.m)
	d.answers = model.NewAnswerSet()
	for i, t := range tasks {
		d.pos[t.ID] = i
		if err := d.inc.AddTask(t); err != nil {
			return err
		}
	}
	for w, st := range d.stats {
		if err := d.inc.SetWorker(w, st); err != nil {
			return err
		}
	}
	return nil
}

// Assign implements baselines.Assigner: top-k benefit (Theorems 2–4).
func (d *DOCSAssigner) Assign(workerID string, candidates []int, k int) []int {
	//docs:allow clock experiment wall-clock measurement; timings are report output, not state
	start := time.Now()
	//docs:allow clock experiment wall-clock measurement; timings are report output, not state
	defer func() { d.LastAssignTime = time.Since(start) }()
	if len(candidates) == 0 || k <= 0 {
		return nil
	}
	var q model.QualityVector
	if st := d.inc.Worker(workerID); st != nil {
		q = st.Q
	} else {
		q = make(model.QualityVector, d.m)
		for i := range q {
			q[i] = truth.DefaultQuality
		}
	}
	states := make([]*assign.TaskState, 0, len(candidates))
	for _, id := range candidates {
		t := d.tasks[d.pos[id]]
		states = append(states, &assign.TaskState{
			ID: id, R: t.Domain, M: d.inc.M(id), S: d.inc.S(id),
		})
	}
	return assign.Assign(states, q, k, nil)
}

// Observe implements baselines.Assigner.
func (d *DOCSAssigner) Observe(a model.Answer) error {
	if err := d.answers.Add(a); err != nil {
		return err
	}
	return d.inc.Submit(a)
}

// Finalize implements baselines.Assigner: full iterative TI.
func (d *DOCSAssigner) Finalize() ([]int, error) {
	init := make(map[string]model.QualityVector, len(d.stats))
	for w, st := range d.stats {
		init[w] = st.Q
	}
	res, err := truth.Infer(d.tasks, d.answers, d.m, truth.Options{InitQuality: init})
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
		tasks := p.Main
		if quick && len(tasks) > 120 {
			tasks = tasks[:120]
		}
		// Budget below the saturation point (cap × n) so each method's
		// allocation strategy matters: smart assigners can give hard tasks
		// more answers by giving settled tasks fewer. At exact saturation
		// every method collects the identical multiset of (task, 10 answers)
		// and the comparison degenerates to final-inference noise.
		total := 7 * len(tasks)
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
			NewDOCSAssigner(p.M, p.InitStats),
		}
		row := []string{name}
		for _, a := range assigners {
			res, err := RunCampaign(a, tasks, p.Pop, total, 3, 10, seed)
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
		states := make([]*assign.TaskState, n)
		for i := range states {
			ts := &assign.TaskState{ID: i, R: model.DomainVector(r.Dirichlet(m, 0.5))}
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
			states[i] = ts
		}
		q := make(model.QualityVector, m)
		for i := range q {
			q[i] = r.Range(0.4, 0.95)
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, k := range ks {
			d := timeIt(func() { assign.Assign(states, q, k, nil) })
			row = append(row, d.String())
		}
		t.AddRow(row...)
	}
	return t, nil
}
