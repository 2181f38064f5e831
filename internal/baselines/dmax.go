package baselines

import (
	"fmt"

	"docs/internal/model"
	"docs/internal/truth"
)

// DMaxAssigner is the paper's D-Max baseline: it uses DOCS's own truth
// inference to maintain worker qualities, but assigns the k tasks whose
// domains best *match* the worker's expertise (score = Σ_k q_k·r_k),
// ignoring how confident the tasks' truths already are. It exists to
// isolate the value of the benefit function: matching alone keeps sending
// experts to already-settled tasks (Section 6.4, observation 5).
type DMaxAssigner struct {
	tasks   []*model.Task
	pos     map[int]int
	slots   []truth.Slot // the engine's state of tasks[i], at slots[i]
	inc     *truth.Incremental
	m       int
	stats   map[string]*truth.Stats
	answers *model.AnswerSet
}

// NewDMaxAssigner returns the D-Max baseline over m domains. initStats
// optionally seeds worker statistics from golden tasks.
func NewDMaxAssigner(m int, initStats map[string]*truth.Stats) *DMaxAssigner {
	return &DMaxAssigner{m: m, stats: initStats}
}

// Name implements Assigner.
func (*DMaxAssigner) Name() string { return "D-Max" }

// Init implements Assigner: each task is materialised at its position,
// the way the serving core holds its publication.
func (d *DMaxAssigner) Init(tasks []*model.Task) error {
	d.tasks = tasks
	d.pos = make(map[int]int, len(tasks))
	for i, t := range tasks {
		if t.Domain == nil {
			return fmt.Errorf("baselines: task %d has no domain vector", t.ID)
		}
		if err := t.Validate(d.m); err != nil {
			return err
		}
		if _, dup := d.pos[t.ID]; dup {
			return fmt.Errorf("baselines: task %d listed twice", t.ID)
		}
		d.pos[t.ID] = i
	}
	d.inc = truth.NewIncremental(d.m)
	d.slots = make([]truth.Slot, len(tasks))
	for i, t := range tasks {
		d.inc.Materialise(truth.RowOf(i, t), &d.slots[i])
	}
	d.answers = model.NewAnswerSet()
	for w, st := range d.stats {
		if err := d.inc.SetWorker(w, st); err != nil {
			return err
		}
	}
	return nil
}

// Assign implements Assigner: rank candidates by domain match q·r.
func (d *DMaxAssigner) Assign(workerID string, candidates []int, k int) []int {
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
	scores := make([]float64, len(candidates))
	for ci, id := range candidates {
		scores[ci] = q.Expected(d.tasks[d.pos[id]].Domain)
	}
	return pick(candidates, scores, k)
}

// Observe implements Assigner: incremental DOCS truth inference plus an
// answer log for the final batch run.
func (d *DMaxAssigner) Observe(a model.Answer) error {
	p, ok := d.pos[a.Task]
	if !ok {
		return fmt.Errorf("baselines: observe unknown task %d", a.Task)
	}
	if err := d.answers.Add(a); err != nil {
		return err
	}
	return d.inc.SubmitBy(d.inc.Intern(a.Worker), &d.slots[p], a.Choice)
}

// Finalize implements Assigner: DOCS's iterative truth inference over all
// collected answers, initialized from the maintained worker qualities.
func (d *DMaxAssigner) Finalize() ([]int, error) {
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
