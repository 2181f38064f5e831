package main

// layers.go is the benchmark's whole contract with the system's packages:
// every call into docs/... lives in this file, so a refactor that moves or
// renames a layer's public function breaks exactly one file of the
// benchmark (TestOnlyLayersImportsTheSystem pins that). The first half
// generates inputs (dataset + crowd); the second half is the traced ladder
// — each rung times only the public calls listed beside it in README.md.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"docs"
	"docs/internal/assign"
	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/httpapi"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// genTask is one generated task: what the server is sent (ID, Text,
// Choices) plus what only the harness knows (Truth, and the model task
// the simulated crowd answers against).
type genTask struct {
	ID      int
	Text    string
	Choices []string
	Truth   int
	m       *model.Task
}

// reID renumbers the task within its campaign.
func (t *genTask) reID(id int) { t.ID, t.m.ID = id, id }

// genWorker is one simulated crowd worker with a hidden per-domain quality.
type genWorker struct {
	ID  string
	idx int
	w   *crowd.Worker
}

// generateTasks returns n tasks drawn round-robin from the paper's four
// datasets, dataset.ByName({4D,Item,QA,SFV}, seed+round), with Truth set.
// IDs are the pool index; campaigns re-ID their slice.
func generateTasks(seed uint64, n int) ([]genTask, error) {
	m := kb.MustDefault().Domains().Size()
	out := make([]genTask, 0, n)
	for round := uint64(0); len(out) < n; round++ {
		for _, name := range []string{"4D", "Item", "QA", "SFV"} {
			ds, err := dataset.ByName(name, seed+round)
			if err != nil {
				return nil, err
			}
			for _, t := range ds.Tasks {
				if len(out) == n {
					break
				}
				// The crowd answers by the task's labelled domain; the
				// server must find that domain itself from the text.
				mt := *t
				mt.Domain = make(model.DomainVector, m)
				mt.Domain[t.TrueDomain] = 1
				out = append(out, genTask{ID: len(out), Text: t.Text, Choices: t.Choices, Truth: t.Truth, m: &mt})
			}
		}
	}
	return out, nil
}

// generateWorkers draws n workers, each expert on a random subset of the
// domains the four datasets touch and a novice elsewhere.
func generateWorkers(seed uint64, n int) ([]genWorker, error) {
	var relevant []int
	seen := map[int]bool{}
	for _, ds := range dataset.All(seed) {
		for _, k := range ds.YahooIndex {
			if !seen[k] {
				seen[k] = true
				relevant = append(relevant, k)
			}
		}
	}
	pop, err := crowd.NewPopulation(crowd.Config{
		NumWorkers:      n,
		M:               kb.MustDefault().Domains().Size(),
		RelevantDomains: relevant,
		Seed:            seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate workers: %w", err)
	}
	out := make([]genWorker, n)
	for i, w := range pop.Workers {
		out[i] = genWorker{ID: w.ID, idx: i, w: w}
	}
	return out, nil
}

// answer is the worker's answer to the task: a pure function of (seed,
// worker, campaign, task), so the answer stream does not depend on the
// order in which the server hands tasks out or the clients interleave.
func (w genWorker) answer(seed uint64, campaign int, t *genTask) int {
	h := seed ^ uint64(w.idx+1)*0x9e3779b97f4a7c15 ^ uint64(campaign+1)*0xc2b2ae3d27d4eb4f ^ uint64(t.ID+1)*0x165667b19e3779f9
	return w.w.Answer(t.m, mathx.NewRand(h))
}

// quality is the worker's hidden quality vector (for the workload hash).
func (w genWorker) quality() []float64 { return w.w.TrueQ }

// ladderAnswers bounds the prefix of the workload the ladder replays: the
// first visits that together carry about this many answers, so the
// fsync-bound rungs stay well under a second each.
const ladderAnswers = 1000

// ladderCampaign is the name the ladder's registry and HTTP rungs publish
// the workload's first campaign under.
const ladderCampaign = "perf"

// ladder replays a prefix of one workload's visits in-process through
// successively thicker stacks. Every system it builds runs the workload's
// own HIT size, redundancy cap and lease TTL with the golden gauntlet and
// the periodic rerun switched off: the rungs time the regular answer path
// alone, and the rerun's cost is its own rung (truth.infer_ms).
type ladder struct {
	w   *workload
	tr  *tracer
	dir string
	rep *report
	m   int
	// tasks is the workload's first campaign, visits the interleaved
	// prefix of both clients' plans, and stream[i] the answers visit i
	// produced in the reference pass (rungCoreMem); every later rung
	// replays exactly that stream.
	tasks   []docs.Task
	visits  []visit
	stream  [][]docs.Answer
	answers int
}

// runLadder runs every rung for workload w, adds the per-layer metrics to
// rep and prints the ladder table. baseUs is the untraced server run's
// mean per-call time, which the top rung is compared with.
func runLadder(w *workload, baseUs float64, tmp string, tr *tracer, rep *report, stdout io.Writer) error {
	dir, err := os.MkdirTemp(tmp, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l := &ladder{w: w, tr: tr, dir: dir, rep: rep, m: kb.MustDefault().Domains().Size()}
	for _, t := range w.campaigns[0].tasks {
		l.tasks = append(l.tasks, docs.Task{ID: t.ID, Text: t.Text, Choices: t.Choices, GoldenTruth: docs.NoTruth})
	}
	per := w.spec.k
	if per == 0 {
		per = w.spec.batch
	}
	n := (ladderAnswers + per - 1) / per
	for i := 0; len(l.visits) < n && (i < len(w.plans[0]) || i < len(w.plans[1])); i++ {
		for c := range w.plans {
			if i < len(w.plans[c]) && len(l.visits) < n {
				l.visits = append(l.visits, w.plans[c][i])
			}
		}
	}

	mem, err := l.rungCoreMem()
	if err != nil {
		return fmt.Errorf("core (memory): %w", err)
	}
	if l.answers == 0 {
		return fmt.Errorf("the ladder's reference pass produced no answers")
	}
	truthUs, err := l.rungTruth()
	if err != nil {
		return fmt.Errorf("truth/assign: %w", err)
	}
	batchMem, err := l.rungCoreBatch()
	if err != nil {
		return fmt.Errorf("core (batch): %w", err)
	}
	if err := l.rungWAL(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	fsync, err := l.rungCoreFsync()
	if err != nil {
		return fmt.Errorf("core (fsync): %w", err)
	}
	if err := l.rungRegistry(); err != nil {
		return fmt.Errorf("registry/snapshot: %w", err)
	}
	if err := l.rungStore(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	single, batch, err := l.rungHTTP()
	if err != nil {
		return fmt.Errorf("httpapi: %w", err)
	}
	tcp, err := l.rungTCP()
	if err != nil {
		return fmt.Errorf("httpapi (tcp): %w", err)
	}
	rep.add(perLayer, "trace.overhead_ratio", "ratio", tcp/baseUs)

	// The ladder table: each rung adds one layer below the workload's own
	// submitting call, so a layer's self time is its rung minus the rung
	// below and the self times sum to the top rung by construction.
	type rung struct {
		name string
		us   float64
	}
	var chain []rung
	if w.spec.ingest() {
		perCall := float64(l.answers) / float64(len(l.visits))
		chain = []rung{
			{"truth.Incremental.Submit x batch", truthUs * perCall},
			{"docs.System.SubmitBatch (memory)", batchMem * perCall},
			{"httpapi handler (WAL + fsync)", batch * perCall},
			{"httpapi over loopback TCP", tcp},
		}
	} else {
		chain = []rung{
			{"truth.Incremental.Submit", truthUs},
			{"docs.System.Submit (memory)", mem},
			{"docs.System.Submit (WAL + fsync)", fsync},
			{"httpapi handler", single},
			{"httpapi over loopback TCP", tcp},
		}
	}
	fmt.Fprintf(stdout, "-- %s ladder: one submitting call, %d answers replayed (untraced server run: %.1f us per call)\n", w.spec.name, l.answers, baseUs)
	below, sum := 0.0, 0.0
	for _, r := range chain {
		fmt.Fprintf(stdout, "%-14s %-38s %12.1f us  self %10.1f us\n", w.spec.name, r.name, r.us, r.us-below)
		sum += r.us - below
		below = r.us
	}
	fmt.Fprintf(stdout, "%-14s %-38s %12.1f us  (= top rung)\n", w.spec.name, "sum of self times", sum)
	return nil
}

// config is the docs.Config of every system the ladder builds.
func (l *ladder) config(walDir string) docs.Config {
	sp := l.w.spec
	return docs.Config{
		GoldenCount:       -1,
		RerunEvery:        -1,
		HITSize:           sp.hit,
		AnswersPerTask:    sp.redundancy,
		LeaseTTL:          sp.leaseTTL,
		WALDir:            walDir,
		WALSyncEveryBatch: walDir != "",
	}
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// root opens a rung's root span.
func (l *ladder) root(name string) int {
	return l.tr.begin(l.w.spec.name+"/"+name, -1, -1)
}

// rungCoreMem is the reference pass: docs.System.Publish, Request and
// Submit on a memory-only system. It records the answer stream every other
// rung replays, and ends with docs.System.Results at end-of-prefix size.
func (l *ladder) rungCoreMem() (float64, error) {
	sys, err := docs.New(l.config(""))
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	root := l.root("core-mem")
	id := l.tr.begin("docs.System.Publish", root, -1)
	err = sys.Publish(l.tasks)
	l.rep.add(perLayer, "dve.publish_us_per_task", "us", us(l.tr.end(id))/float64(len(l.tasks)))
	if err != nil {
		return 0, err
	}
	first := &l.w.campaigns[0]
	for vi, v := range l.visits {
		wk := l.w.workers[v.worker]
		vs := l.tr.begin("visit", root, vi)
		var answers []docs.Answer
		if l.w.spec.ingest() {
			for _, a := range v.answers {
				answers = append(answers, docs.Answer{Worker: wk.ID, TaskID: a.task, Choice: a.choice})
			}
		} else {
			id := l.tr.begin("docs.System.Request", vs, vi)
			got, err := sys.Request(wk.ID, l.w.spec.k)
			l.tr.end(id)
			if err != nil {
				return 0, err
			}
			for _, t := range got {
				answers = append(answers, docs.Answer{Worker: wk.ID, TaskID: t.ID, Choice: wk.answer(l.w.seed, 0, &first.tasks[t.ID])})
			}
		}
		for _, a := range answers {
			id := l.tr.begin("docs.System.Submit", vs, vi)
			err := sys.Submit(a.Worker, a.TaskID, a.Choice)
			l.tr.end(id)
			if err != nil {
				return 0, err
			}
		}
		l.tr.end(vs)
		l.stream = append(l.stream, answers)
		l.answers += len(answers)
	}
	id = l.tr.begin("docs.System.Results", root, -1)
	_, err = sys.Results()
	l.rep.add(perLayer, "core.results_ms", "ms", ms(l.tr.end(id)))
	l.tr.end(root)
	if err != nil {
		return 0, err
	}
	if d, n := l.tr.meanUnder(root, "docs.System.Request"); n > 0 {
		l.rep.add(extra, "core.request_us", "us", us(d))
	}
	d, _ := l.tr.meanUnder(root, "docs.System.Submit")
	l.rep.add(perLayer, "core.submit_mem_us", "us", us(d))
	return us(d), nil
}

// rungTruth feeds the stream to a bare truth.Incremental, then times the
// assignment layer's pure functions (assign.BenefitWith,
// Assigner.AssignFunc) and the batch solver (truth.Infer) on the state
// and the answers that leaves behind.
func (l *ladder) rungTruth() (float64, error) {
	inc := truth.NewIncremental(l.m)
	var tasks []*model.Task
	for i := range l.w.campaigns[0].tasks {
		t := l.w.campaigns[0].tasks[i].m
		tasks = append(tasks, t)
		if err := inc.AddTask(t); err != nil {
			return 0, err
		}
	}
	root := l.root("truth")
	set := model.NewAnswerSet()
	for vi, answers := range l.stream {
		for _, a := range answers {
			ma := model.Answer{Worker: a.Worker, Task: a.TaskID, Choice: a.Choice}
			id := l.tr.begin("truth.Incremental.Submit", root, vi)
			err := inc.Submit(ma)
			l.tr.end(id)
			if err == nil {
				err = set.Add(ma)
			}
			if err != nil {
				return 0, err
			}
		}
	}
	submit, _ := l.tr.meanUnder(root, "truth.Incremental.Submit")
	l.rep.add(perLayer, "truth.submit_us", "us", us(submit))

	q := truth.NewStats(l.m).Q
	if st := inc.Worker(l.stream[0][0].Worker); st != nil {
		q = st.Q
	}
	states := make([]assign.TaskState, 0, len(tasks))
	for _, t := range tasks {
		v := inc.View(t.ID)
		states = append(states, assign.TaskState{ID: t.ID, R: t.Domain, M: v.M, S: v.S})
	}
	var sc assign.Scratch
	var sink float64
	id := l.tr.begin("assign.BenefitWith", root, -1)
	for i := range states {
		sink += assign.BenefitWith(&states[i], q, &sc)
	}
	l.tr.spans[id].Calls = len(states)
	l.rep.add(perLayer, "assign.benefit_ns", "ns", float64(l.tr.end(id))/float64(len(states)))
	k := l.w.spec.hit
	if k == 0 {
		k = 20 // the server's default HIT size
	}
	var as assign.Assigner
	for i := 0; i < 10; i++ {
		id := l.tr.begin("assign.Assigner.AssignFunc", root, -1)
		got := as.AssignFunc(len(states), func(i int, ts *assign.TaskState) bool {
			*ts = states[i]
			return true
		}, q, k)
		l.tr.end(id)
		sink += float64(len(got))
	}
	topk, _ := l.tr.meanUnder(root, "assign.Assigner.AssignFunc")
	l.rep.add(perLayer, "assign.topk_us", "us", us(topk))

	id = l.tr.begin("truth.Infer", root, -1)
	_, err := truth.Infer(tasks, set, l.m, truth.Options{})
	l.rep.add(perLayer, "truth.infer_ms", "ms", ms(l.tr.end(id)))
	l.tr.end(root)
	if sink < 0 {
		return 0, fmt.Errorf("negative benefit sum %v", sink)
	}
	return us(submit), err
}

// rungCoreBatch replays the stream through docs.System.SubmitBatch, one
// call per visit, on a memory-only system.
func (l *ladder) rungCoreBatch() (float64, error) {
	sys, err := docs.New(l.config(""))
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	if err := sys.Publish(l.tasks); err != nil {
		return 0, err
	}
	root := l.root("core-batch")
	var total time.Duration
	for vi, answers := range l.stream {
		if len(answers) == 0 {
			continue
		}
		id := l.tr.begin("docs.System.SubmitBatch", root, vi)
		sts, err := sys.SubmitBatch(answers)
		total += l.tr.end(id)
		if err != nil {
			return 0, err
		}
		for _, st := range sts {
			if !st.OK {
				return 0, fmt.Errorf("batch item rejected: %s", st.Error)
			}
		}
	}
	l.tr.end(root)
	per := us(total) / float64(l.answers)
	l.rep.add(perLayer, "core.submit_batch_us_per_answer", "us", per)
	return per, nil
}

// rungWAL appends the stream to a bare wal.Log (Reserve + Pending.Wait per
// answer), once without and once with an fsync per group.
func (l *ladder) rungWAL() error {
	for _, mode := range []struct {
		metric string
		sync   wal.SyncPolicy
	}{{"wal.append_us", wal.SyncNever}, {"wal.append_fsync_us", wal.SyncEveryBatch}} {
		dir := filepath.Join(l.dir, mode.metric)
		log, err := wal.Open(dir, wal.Options{Sync: mode.sync})
		if err != nil {
			return err
		}
		root := l.root(mode.metric)
		for vi, answers := range l.stream {
			for _, a := range answers {
				id := l.tr.begin("wal.Log.Reserve+Wait", root, vi)
				p, err := log.Reserve(wal.Record{Kind: wal.KindAnswer, Worker: a.Worker, Task: a.TaskID, Choice: a.Choice})
				if err == nil {
					err = p.Wait()
				}
				l.tr.end(id)
				if err != nil {
					log.Close()
					return err
				}
			}
		}
		l.tr.end(root)
		d, _ := l.tr.meanUnder(root, "wal.Log.Reserve+Wait")
		l.rep.add(perLayer, mode.metric, "us", us(d))
		if err := log.Close(); err != nil {
			return err
		}
	}
	return nil
}

// rungCoreFsync replays the stream through docs.System.Submit over a WAL
// with an fsync per group, then prices recovery: docs.New over the
// directory that run left behind, with the periodic rerun back at its
// default so the replay reruns synchronously as a production boot does.
func (l *ladder) rungCoreFsync() (float64, error) {
	dir := filepath.Join(l.dir, "core-fsync")
	sys, err := docs.New(l.config(dir))
	if err != nil {
		return 0, err
	}
	if err := sys.Publish(l.tasks); err != nil {
		sys.Close()
		return 0, err
	}
	root := l.root("core-fsync")
	for vi, answers := range l.stream {
		for _, a := range answers {
			id := l.tr.begin("docs.System.Submit", root, vi)
			err := sys.Submit(a.Worker, a.TaskID, a.Choice)
			l.tr.end(id)
			if err != nil {
				sys.Close()
				return 0, err
			}
		}
	}
	l.tr.end(root)
	d, _ := l.tr.meanUnder(root, "docs.System.Submit")
	l.rep.add(perLayer, "core.submit_fsync_us", "us", us(d))
	if err := sys.Close(); err != nil {
		return 0, err
	}

	cfg := l.config(dir)
	cfg.RerunEvery = 0
	root = l.root("core-recover")
	id := l.tr.begin("docs.New", root, -1)
	sys, err = docs.New(cfg)
	took := l.tr.end(id)
	l.tr.end(root)
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	records := sys.Recovery().Records
	if records < l.answers {
		return 0, fmt.Errorf("recovery replayed %d records, the run logged at least %d", records, l.answers)
	}
	l.rep.add(perLayer, "core.recover_ms_per_krecord", "ms", ms(took)*1000/float64(records))
	return us(d), nil
}

// rungRegistry hosts the campaign in a docs.Registry: Registry.Campaign on
// the resident campaign, then Hibernate and the waking Campaign call, then
// snapshot.Read and snapshot.Encode on the snapshot file Hibernate wrote.
func (l *ladder) rungRegistry() error {
	dir := filepath.Join(l.dir, "registry")
	reg, err := docs.OpenRegistry(l.config(dir))
	if err != nil {
		return err
	}
	defer reg.Close()
	sys, err := reg.Create(ladderCampaign)
	if err != nil {
		return err
	}
	if err := sys.Publish(l.tasks); err != nil {
		return err
	}
	for _, answers := range l.stream {
		for _, a := range answers {
			if err := sys.Submit(a.Worker, a.TaskID, a.Choice); err != nil {
				return err
			}
		}
	}
	root := l.root("registry")
	const gets = 100000
	id := l.tr.begin("docs.Registry.Campaign", root, -1)
	for i := 0; i < gets; i++ {
		if _, err := reg.Campaign(ladderCampaign); err != nil {
			return err
		}
	}
	l.tr.spans[id].Calls = gets
	l.rep.add(perLayer, "registry.get_ns", "ns", float64(l.tr.end(id))/gets)
	for i := 0; i < 5; i++ {
		id := l.tr.begin("docs.Registry.Hibernate", root, -1)
		err := reg.Hibernate(ladderCampaign)
		l.tr.end(id)
		if err != nil {
			return err
		}
		if i == 0 {
			if err := l.rungSnapshot(filepath.Join(dir, "campaigns", ladderCampaign), root); err != nil {
				return err
			}
		}
		id = l.tr.begin("docs.Registry.Campaign (wake)", root, -1)
		_, err = reg.Campaign(ladderCampaign)
		l.tr.end(id)
		if err != nil {
			return err
		}
	}
	l.tr.end(root)
	d, _ := l.tr.meanUnder(root, "docs.Registry.Hibernate")
	l.rep.add(perLayer, "registry.hibernate_ms", "ms", ms(d))
	d, _ = l.tr.meanUnder(root, "docs.Registry.Campaign (wake)")
	l.rep.add(perLayer, "registry.wake_ms", "ms", ms(d))
	return nil
}

// rungSnapshot times snapshot.Read and snapshot.Encode on the snapshot a
// hibernation left in dir.
func (l *ladder) rungSnapshot(dir string, root int) error {
	id := l.tr.begin("snapshot.Read", root, -1)
	st, err := snapshot.Read(dir)
	l.rep.add(perLayer, "snapshot.decode_ms", "ms", ms(l.tr.end(id)))
	if err != nil {
		return err
	}
	if st == nil {
		return fmt.Errorf("hibernation left no snapshot in %s", dir)
	}
	id = l.tr.begin("snapshot.Encode", root, -1)
	_, err = snapshot.Encode(st)
	l.rep.add(perLayer, "snapshot.encode_ms", "ms", ms(l.tr.end(id)))
	return err
}

// rungStore times store.Store.MergeProfile, the fsynced delta a finished
// golden gauntlet appends to the shared worker store.
func (l *ladder) rungStore() error {
	st, err := store.Open(filepath.Join(l.dir, "store.json"), l.m)
	if err != nil {
		return err
	}
	root := l.root("store")
	for i := 0; i < 50; i++ {
		wk := l.w.workers[i%len(l.w.workers)]
		id := l.tr.begin("store.Store.MergeProfile", root, -1)
		_, _, err := st.MergeProfile(fmt.Sprintf("%s/%s/%d", ladderCampaign, wk.ID, i), wk.ID, truth.NewStats(l.m))
		l.tr.end(id)
		if err != nil {
			st.Close()
			return err
		}
	}
	l.tr.end(root)
	d, _ := l.tr.meanUnder(root, "store.Store.MergeProfile")
	l.rep.add(perLayer, "store.merge_profile_us", "us", us(d))
	return st.Close()
}

// newHTTP builds a durable httpapi.Server with the workload's first
// campaign published, the stack the two HTTP rungs drive.
func (l *ladder) newHTTP(name string) (*httpapi.Server, error) {
	srv, err := httpapi.New(l.config(filepath.Join(l.dir, name)), httpapi.Options{})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/c/"+ladderCampaign+"/publish", bytes.NewReader(l.w.campaigns[0].publish)))
	if rec.Code != http.StatusOK {
		srv.Close()
		return nil, fmt.Errorf("publish: status %d: %.200s", rec.Code, rec.Body.String())
	}
	return srv, nil
}

// visitBody is the POST /submit-batch JSON body of one visit's answers.
func visitBody(answers []docs.Answer) []byte {
	return batchBody(len(answers), func(i int) (string, int, int) {
		return answers[i].Worker, answers[i].TaskID, answers[i].Choice
	})
}

// rungHTTP calls Server.Handler().ServeHTTP in-process: the stream as
// single POST /submit calls (with the visit's GET /request first, where the
// workload makes one) on one server, and as one POST /submit-batch per
// visit on another.
func (l *ladder) rungHTTP() (single, batch float64, err error) {
	srv, err := l.newHTTP("http")
	if err != nil {
		return 0, 0, err
	}
	h := srv.Handler()
	root := l.root("httpapi")
	serve := func(name string, vi int, r *http.Request) error {
		rec := httptest.NewRecorder()
		id := l.tr.begin(name, root, vi)
		h.ServeHTTP(rec, r)
		l.tr.end(id)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.URL, rec.Code, rec.Body.String())
		}
		return nil
	}
	for vi, answers := range l.stream {
		if !l.w.spec.ingest() {
			url := fmt.Sprintf("/c/%s/request?worker=%s&k=%d", ladderCampaign, l.w.workers[l.visits[vi].worker].ID, l.w.spec.k)
			if err == nil {
				err = serve("httpapi GET /request", vi, httptest.NewRequest(http.MethodGet, url, nil))
			}
		}
		for _, a := range answers {
			if err == nil {
				err = serve("httpapi POST /submit", vi, httptest.NewRequest(http.MethodPost, "/c/"+ladderCampaign+"/submit",
					bytes.NewReader(submitBody(a.Worker, a.TaskID, a.Choice))))
			}
		}
	}
	l.tr.end(root)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, err
	}
	if d, n := l.tr.meanUnder(root, "httpapi GET /request"); n > 0 {
		l.rep.add(extra, "httpapi.request_us", "us", us(d))
	}
	d, _ := l.tr.meanUnder(root, "httpapi POST /submit")
	single = us(d)
	l.rep.add(perLayer, "httpapi.submit_us", "us", single)

	srv, err = l.newHTTP("http-batch")
	if err != nil {
		return 0, 0, err
	}
	h = srv.Handler()
	root = l.root("httpapi-batch")
	for vi, answers := range l.stream {
		if err == nil && len(answers) > 0 {
			err = serve("httpapi POST /submit-batch", vi, httptest.NewRequest(http.MethodPost, "/c/"+ladderCampaign+"/submit-batch",
				bytes.NewReader(visitBody(answers))))
		}
	}
	took := l.tr.end(root)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	batch = us(took) / float64(l.answers)
	l.rep.add(perLayer, "httpapi.submit_batch_us_per_answer", "us", batch)
	return single, batch, err
}

// rungTCP is the ladder's top: the same handler behind a real listener,
// driven over one loopback connection with the workload's own submitting
// call — POST /submit per answer, or POST /submit-batch per visit for the
// ingest shape.
func (l *ladder) rungTCP() (float64, error) {
	srv, err := l.newHTTP("http-tcp")
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(served)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	hc := newClient()
	defer hc.CloseIdleConnections()
	base := "http://" + ln.Addr().String() + "/c/" + ladderCampaign
	root := l.root("httpapi-tcp")
	post := func(vi int, url string, body []byte) error {
		id := l.tr.begin("POST over TCP", root, vi)
		_, _, err := call(context.Background(), hc, http.MethodPost, url, body)
		l.tr.end(id)
		return err
	}
	for vi, answers := range l.stream {
		if l.w.spec.ingest() {
			if err := post(vi, base+"/submit-batch", visitBody(answers)); err != nil {
				return 0, err
			}
			continue
		}
		for _, a := range answers {
			if err := post(vi, base+"/submit", submitBody(a.Worker, a.TaskID, a.Choice)); err != nil {
				return 0, err
			}
		}
	}
	l.tr.end(root)
	d, _ := l.tr.meanUnder(root, "POST over TCP")
	l.rep.add(perLayer, "httpapi.submit_tcp_us", "us", us(d))
	return us(d), nil
}
