package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// baseSeconds is the -seconds value the frozen episode counts are sized for
// (BENCHMARK.json run_seconds): at it, a run of each workload takes on the
// order of twenty seconds on the 2-core reference machine. Other values
// scale the episode count linearly; an episode's shape never changes.
const baseSeconds = 10

// clients is the number of closed-loop load generators (= nproc on the
// reference machine). Each owns one keep-alive connection and a disjoint
// half of the worker population, so a worker ID is never in two visits at
// once by construction.
const clients = 2

// spec is one workload's frozen shape. Work is a fixed visit count, not a
// fixed time: serving state grows with answers, so only equal inputs make
// two commits comparable.
type spec struct {
	name string
	// campaigns × tasks tasks are published; workers is the shared worker
	// population; visits the visit count of one episode.
	campaigns, tasks, workers, visits int
	// k is the /request size of a visit. 0 selects the ingest shape: no
	// /request at all, each visit is one pre-generated POST /submit-batch
	// body of batch answers.
	k, batch int
	// goldenEvery marks every n'th task as carrying a requester-known
	// truth (golden-eligible); 0 publishes no truths.
	goldenEvery int
	// zipf deals the visits over the campaigns Zipf(s=1) instead of
	// uniformly.
	zipf bool
	// episodes is how many times a run at baseSeconds repeats a server's
	// life (set-up, the visit plan, kill -9) over a fresh directory.
	episodes int
	// The campaign tuning, passed to docs-server as flags (serverFlags) and
	// to the in-process ladder as docs.Config: golden tasks per campaign
	// (negative disables the gauntlet), HIT size, redundancy cap, lease
	// TTL and the resident-campaign cap. Zero leaves a server default.
	golden, hit, redundancy, maxLive int
	leaseTTL                         time.Duration
	// minAccuracy fails the run when /results accuracy falls below it
	// (0 = not checked: too few answers per task for a meaningful floor).
	minAccuracy float64
}

// specs are the four workloads, in report order. Sizes were scaled once to
// fit the benchmark contract's time cap on 2 cores and are frozen; see
// README.md for the reasoning behind each.
var specs = []spec{
	// The paper's campaign, every layer a little: golden gauntlet, OTA
	// requests, single submits, reruns, ~4.7 answers per task.
	{
		name:      "lifecycle",
		campaigns: 1, tasks: 600, workers: 60, visits: 200, k: 20, goldenEvery: 10,
		episodes: 8,
		golden:   20, hit: 20, redundancy: 5, leaseTTL: 5 * time.Minute,
		minAccuracy: 0.92,
	},
	// No /request calls: httpapi decode + truth.Incremental + one WAL batch
	// frame per call do the work, assign does none.
	{
		name:      "ingest-batch",
		campaigns: 1, tasks: 600, workers: 600, visits: 100, batch: 128,
		episodes: 12,
		golden:   -1,
	},
	// A 6k-candidate index: assign does most of the work per visit, so a
	// wal/codec optimisation predicts no change here.
	{
		name:      "assign-heavy",
		campaigns: 1, tasks: 6000, workers: 400, visits: 400, k: 5,
		episodes: 5,
		golden:   -1, hit: 5, redundancy: 3, leaseTTL: 5 * time.Minute,
	},
	// 80 campaigns under a 16-campaign resident cap: registry wake/evict,
	// snapshot and WAL open/close dominate; working set >> cap.
	{
		name:      "churn",
		campaigns: 80, tasks: 200, workers: 100, visits: 250, k: 10, goldenEvery: 10, zipf: true,
		episodes: 4,
		golden:   10, hit: 10, redundancy: 5, leaseTTL: 5 * time.Minute, maxLive: 16,
	},
}

// ingest reports the ingest shape: no /request, one submit-batch per visit.
func (s spec) ingest() bool { return s.k == 0 }

// serverFlags are the only docs-server flags the harness passes besides
// -addr, -wal-dir and -wal-fsync; everything else (async rerun every 100
// answers, checkpoint and snapshot cadence) runs at its production default.
func (s spec) serverFlags() []string {
	flags := []string{"-golden", strconv.Itoa(s.golden)}
	for _, f := range []struct {
		name string
		v    int
	}{{"-hit", s.hit}, {"-redundancy", s.redundancy}, {"-max-live-campaigns", s.maxLive}} {
		if f.v != 0 {
			flags = append(flags, f.name, strconv.Itoa(f.v))
		}
	}
	if s.leaseTTL != 0 {
		flags = append(flags, "-lease-ttl", s.leaseTTL.String())
	}
	return flags
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled returns the spec with its episode count scaled to seconds.
func (s spec) scaled(seconds int) spec {
	s.episodes = max(1, s.episodes*seconds/baseSeconds)
	return s
}

// visit is one closed-loop unit of work: a worker arrives at a campaign.
type visit struct {
	worker, campaign int
	// body is the pre-generated submit-batch body (ingest shape only) and
	// answers what it carries, for the checker's vote count.
	body    []byte
	answers []sentAnswer
}

// sentAnswer is one answer the harness sent, kept for the majority-vote
// baseline and the per-campaign acked counts.
type sentAnswer struct {
	campaign, task, choice int
}

// campaign is one generated task set plus its pre-marshalled publish body.
type campaign struct {
	name    string
	tasks   []genTask
	publish []byte
}

// workload is everything one run sends, generated from (spec, seed) before
// the server exists: the server sees only these requests.
type workload struct {
	spec      spec
	seed      uint64
	campaigns []campaign
	workers   []genWorker
	// plans[c] is client c's visit sequence; client c owns the workers
	// with index ≡ c (mod clients).
	plans [clients][]visit
	// sha256 fingerprints every generated input; equal seeds give equal
	// hashes regardless of how the clients later interleave.
	sha256 string
}

type publishTask struct {
	ID          int      `json:"id"`
	Text        string   `json:"text"`
	Choices     []string `json:"choices"`
	GoldenTruth int      `json:"golden_truth"`
}

// generate builds the workload for (spec, seed).
func generate(sp spec, seed uint64) (*workload, error) {
	if sp.workers < clients || sp.visits < clients || sp.episodes < 1 {
		return nil, fmt.Errorf("workload %s: need at least %d workers and visits, and an episode", sp.name, clients)
	}
	pool, err := generateTasks(seed, sp.campaigns*sp.tasks)
	if err != nil {
		return nil, err
	}
	workers, err := generateWorkers(seed, sp.workers)
	if err != nil {
		return nil, err
	}
	w := &workload{spec: sp, seed: seed, workers: workers}
	for c := 0; c < sp.campaigns; c++ {
		cp := campaign{name: fmt.Sprintf("c%03d", c), tasks: pool[c*sp.tasks : (c+1)*sp.tasks]}
		pub := make([]publishTask, len(cp.tasks))
		for i := range cp.tasks {
			t := &cp.tasks[i]
			t.reID(i) // IDs are unique within a campaign
			pub[i] = publishTask{ID: t.ID, Text: t.Text, Choices: t.Choices, GoldenTruth: -1}
			if sp.goldenEvery > 0 && i%sp.goldenEvery == 0 {
				pub[i].GoldenTruth = t.Truth
			}
		}
		if cp.publish, err = json.Marshal(map[string]any{"tasks": pub}); err != nil {
			return nil, err
		}
		w.campaigns = append(w.campaigns, cp)
	}

	r := rand.New(rand.NewSource(int64(seed)))
	if sp.ingest() {
		w.planIngest(r)
	} else {
		w.planVisits(r)
	}
	w.sha256 = w.fingerprint()
	return w, nil
}

// planVisits builds each client's request→submit visits. Both the workers
// and the campaigns are dealt, not sampled: the client's own half of the
// population takes turns — every worker makes the same number of visits,
// give or take one — and each campaign gets its uniform or Zipf(s=1) share
// of the client's visits, rounded. Only the order is drawn from the seed,
// so the split between gauntlet and regular visits, and between hot and
// cold campaigns, is the same for every seed.
func (w *workload) planVisits(r *rand.Rand) {
	sp := w.spec
	for c := 0; c < clients; c++ {
		own := (sp.workers - c + clients - 1) / clients
		n := sp.visits / clients
		if c < sp.visits%clients {
			n++
		}
		plan := make([]visit, n)
		campaigns := dealCampaigns(n, sp.campaigns, sp.zipf)
		for i := range plan {
			plan[i] = visit{worker: (i%own)*clients + c, campaign: campaigns[i]}
		}
		r.Shuffle(n, func(i, j int) { plan[i].worker, plan[j].worker = plan[j].worker, plan[i].worker })
		r.Shuffle(n, func(i, j int) { plan[i].campaign, plan[j].campaign = plan[j].campaign, plan[i].campaign })
		w.plans[c] = plan
	}
}

// dealCampaigns returns n campaign indices in which campaign i appears in
// proportion to 1/(i+1) (Zipf with s=1) or uniformly, by largest remainder.
func dealCampaigns(n, campaigns int, zipf bool) []int {
	weight := make([]float64, campaigns)
	var sum float64
	for i := range weight {
		weight[i] = 1
		if zipf {
			weight[i] = 1 / float64(i+1)
		}
		sum += weight[i]
	}
	out := make([]int, 0, n)
	type remainder struct {
		campaign int
		frac     float64
	}
	rest := make([]remainder, campaigns)
	for i, wt := range weight {
		share := float64(n) * wt / sum
		whole := int(share)
		for j := 0; j < whole; j++ {
			out = append(out, i)
		}
		rest[i] = remainder{i, share - float64(whole)}
	}
	sort.SliceStable(rest, func(a, b int) bool { return rest[a].frac > rest[b].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rest[i].campaign)
	}
	return out
}

// planIngest pre-generates the submit-batch bodies: each worker's random
// permutation of the campaign's tasks is cut into chunks of batch distinct
// tasks, one body per chunk, so no (worker, task) pair ever repeats and
// every item is accepted. The bodies are dealt round-robin over workers so
// a worker's chunks are spread across the run.
func (w *workload) planIngest(r *rand.Rand) {
	sp := w.spec
	tasks := w.campaigns[0].tasks
	perWorker := len(tasks) / sp.batch
	perms := make([][]int, sp.workers)
	for i := range perms {
		perms[i] = r.Perm(len(tasks))
	}
	order := r.Perm(sp.workers)
	made := 0
	for round := 0; round < perWorker && made < sp.visits; round++ {
		for _, wi := range order {
			if made == sp.visits {
				break
			}
			v := visit{worker: wi}
			for _, ti := range perms[wi][round*sp.batch : (round+1)*sp.batch] {
				t := &tasks[ti]
				v.answers = append(v.answers, sentAnswer{task: t.ID, choice: w.workers[wi].answer(w.seed, 0, t)})
			}
			v.body = batchBody(len(v.answers), func(i int) (string, int, int) {
				return w.workers[wi].ID, v.answers[i].task, v.answers[i].choice
			})
			c := wi % clients
			w.plans[c] = append(w.plans[c], v)
			made++
		}
	}
}

// batchBody is the POST /submit-batch JSON body of n answers.
func batchBody(n int, answer func(i int) (worker string, task, choice int)) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"answers":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(submitBody(answer(i)))
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

// submitBody is the JSON of one answer, the POST /submit body and one
// element of a submit-batch body.
func submitBody(worker string, task, choice int) []byte {
	b := make([]byte, 0, 48)
	b = append(b, `{"worker":"`...)
	b = append(b, worker...)
	b = append(b, `","task":`...)
	b = strconv.AppendInt(b, int64(task), 10)
	b = append(b, `,"choice":`...)
	b = strconv.AppendInt(b, int64(choice), 10)
	return append(b, '}')
}

// fingerprint hashes every generated input: the publish bodies (task
// text, choices, golden truths), the hidden truths, each worker's hidden
// quality vector, and both visit plans with their bodies.
func (w *workload) fingerprint() string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(w.seed, uint64(w.spec.k), uint64(w.spec.batch), uint64(len(w.campaigns)))
	for _, c := range w.campaigns {
		h.Write(c.publish)
		for _, t := range c.tasks {
			put(uint64(t.Truth))
		}
	}
	for _, wk := range w.workers {
		h.Write([]byte(wk.ID))
		for _, q := range wk.quality() {
			put(math.Float64bits(q))
		}
	}
	for c := range w.plans {
		put(uint64(c), uint64(len(w.plans[c])))
		for _, v := range w.plans[c] {
			put(uint64(v.worker), uint64(v.campaign))
			h.Write(v.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
