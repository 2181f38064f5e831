package main

import (
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tinySpecs are the four workloads at sizes the smoke test can run in
// seconds: same shapes, same flags, same code paths. churn's resident cap
// stays above the client count: at a cap of 2 a wake by one client can
// evict the campaign the other is submitting to, and that submit answers
// 500 "wal: log closed".
func tinySpecs() []spec {
	tiny := map[string]spec{
		"lifecycle":    {campaigns: 1, tasks: 150, workers: 10, visits: 30, k: 10, goldenEvery: 10, golden: 5, hit: 10, episodes: 2},
		"ingest-batch": {campaigns: 1, tasks: 64, workers: 8, visits: 8, batch: 32, golden: -1, episodes: 2},
		"assign-heavy": {campaigns: 1, tasks: 300, workers: 10, visits: 20, k: 5, golden: -1, hit: 5, episodes: 1},
		"churn":        {campaigns: 6, tasks: 40, workers: 10, visits: 30, k: 5, goldenEvery: 10, zipf: true, golden: 3, hit: 5, maxLive: 3, episodes: 1},
	}
	var out []spec
	for _, sp := range specs {
		t := tiny[sp.name]
		t.name, t.redundancy, t.leaseTTL = sp.name, sp.redundancy, sp.leaseTTL
		out = append(out, t)
	}
	return out
}

func TestSameSeedSameWorkload(t *testing.T) {
	for _, sp := range tinySpecs() {
		a, err := generate(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(sp, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.sha256 != b.sha256 {
			t.Errorf("%s: seed 7 generated %s then %s", sp.name, a.sha256, b.sha256)
		}
		if a.sha256 == c.sha256 {
			t.Errorf("%s: seeds 7 and 8 generated the same workload %s", sp.name, a.sha256)
		}
		// The answer a worker gives is a function of (seed, worker,
		// campaign, task) alone, whatever order the clients ask in.
		wk, task := a.workers[1], &a.campaigns[0].tasks[3]
		first := wk.answer(a.seed, 0, task)
		for i := 0; i < 5; i++ {
			a.workers[0].answer(a.seed, 0, task)
			if got := wk.answer(a.seed, 0, task); got != first {
				t.Errorf("%s: worker %s answered task %d with %d, then %d", sp.name, wk.ID, task.ID, first, got)
			}
		}
	}
}

// TestOneVisitPerWorker replays both clients' plans concurrently, as
// runLoad does, and fails if a worker is ever inside two visits at once.
func TestOneVisitPerWorker(t *testing.T) {
	for _, sp := range specs {
		w, err := generate(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(w.plans[0]) + len(w.plans[1]); got != sp.visits {
			t.Errorf("%s: planned %d visits, want %d", sp.name, got, sp.visits)
		}
		busy := make([]atomic.Bool, len(w.workers))
		var wg sync.WaitGroup
		for c := range w.plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, v := range w.plans[c] {
					if !busy[v.worker].CompareAndSwap(false, true) {
						t.Errorf("%s: worker %d is in two visits at once", sp.name, v.worker)
						return
					}
					time.Sleep(time.Microsecond)
					busy[v.worker].Store(false)
				}
			}()
		}
		wg.Wait()
	}
}

// TestCheckerRejects feeds the output checker a correct observation, then
// a short count and a wrong truth, each of which must fail it.
func TestCheckerRejects(t *testing.T) {
	tasks := []genTask{{ID: 0, Choices: []string{"a", "b"}, Truth: 1}, {ID: 1, Choices: []string{"a", "b"}, Truth: 0}}
	sent := []sentAnswer{{task: 0, choice: 1}, {task: 1, choice: 0}}
	good := observed{spec: spec{minAccuracy: 0.95}, recovered: true, ackedTotal: 2, ackedProbe: 2, campaignsAnswers: 2, statsAnswers: 2, recoveredAnswers: 2}
	good.accuracy, good.mvAccuracy, good.scored = score([]result{{0, 1}, {1, 0}}, tasks, nil, sent, 0)
	if problems := good.check(); len(problems) > 0 {
		t.Fatalf("correct observation rejected: %v", problems)
	}

	short := good
	short.recoveredAnswers = 1 // an acknowledged answer did not survive the restart
	if len(short.check()) == 0 {
		t.Error("checker accepted a restart that lost an acknowledged answer")
	}
	short = good
	short.statsAnswers = 1
	if len(short.check()) == 0 {
		t.Error("checker accepted /stats counting fewer answers than were acked")
	}

	wrong := good
	wrong.accuracy, wrong.mvAccuracy, wrong.scored = score([]result{{0, 0}, {1, 1}}, tasks, nil, sent, 0)
	if wrong.accuracy != 0 || wrong.mvAccuracy != 1 {
		t.Fatalf("score = %v (majority vote %v), want 0 and 1", wrong.accuracy, wrong.mvAccuracy)
	}
	if len(wrong.check()) == 0 {
		t.Error("checker accepted results that contradict the generated truth")
	}

	twice := good
	twice.violations = []string{"task 3 served twice to w001 in c000"}
	if len(twice.check()) == 0 {
		t.Error("checker accepted a task served twice to one worker")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads at tiny sizes against a real
// docs-server subprocess, with the traced ladder, and checks that each
// produces exactly the metrics BENCHMARK.json lists, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns docs-server")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	want := map[metricKind]map[string]string{endToEnd: {}, perLayer: {}}
	for _, m := range bench.EndToEnd {
		want[endToEnd][m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		want[perLayer][m.Name] = m.Unit
	}
	if len(bench.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bench.Workloads), len(specs))
	}
	for i, wl := range bench.Workloads {
		if i < len(specs) && wl.Name != specs[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, wl.Name, specs[i].name)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin, err := buildServer(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, sp := range tinySpecs() {
		rep, err := runWorkload(ctx, bin, dir, sp, 11, tr, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !rep.correct() {
			t.Errorf("%s: output checks failed: %d of %d calls failed, %v", sp.name, rep.failed, rep.attempted, rep.problems)
		}
		got := map[metricKind]map[string]string{endToEnd: {}, perLayer: {}}
		for _, m := range rep.metrics {
			if m.kind != extra {
				got[m.kind][m.name] = m.unit
			}
		}
		for kind, label := range map[metricKind]string{endToEnd: "end_to_end", perLayer: "per_layer"} {
			if a, b := sortedPairs(got[kind]), sortedPairs(want[kind]); a != b {
				t.Errorf("%s: %s metrics differ\nprogram:        %s\nBENCHMARK.json: %s", sp.name, label, a, b)
			}
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(rep.resultLine(traced)), &line); err != nil {
				t.Fatalf("%s: result line: %v", sp.name, err)
			}
			if !line.Correct || line.Attempted < 1 || len(line.Metrics) == 0 {
				t.Errorf("%s: result line %+v", sp.name, line)
			}
		}
	}

	path := filepath.Join(dir, "trace.json")
	if err := tr.flush(path); err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []span }
	if data, err = os.ReadFile(path); err == nil {
		err = json.Unmarshal(data, &trace)
	}
	if err != nil || len(trace.Spans) == 0 {
		t.Fatalf("trace.json: %d spans, %v", len(trace.Spans), err)
	}
	for i, s := range trace.Spans {
		if s.EndNs < s.StartNs || s.Parent >= i {
			t.Fatalf("span %d %+v: ends before it starts or names a later parent", i, s)
		}
	}
}

func sortedPairs(m map[string]string) string {
	var out []string
	for k, v := range m {
		out = append(out, k+" ["+v+"]")
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// TestRunRejectsBadArguments pins the exit path the contract's empty
// checkout relies on: a run that cannot start returns an error.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-seconds", "0"}, {"stray"}} {
		if err := run(context.Background(), append(args, "-build-dir", t.TempDir()), io.Discard); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestOnlyLayersImportsTheSystem keeps the benchmark's contract with the
// layers in one file: no other non-test file may import a docs package.
func TestOnlyLayersImportsTheSystem(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if name == "layers.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "docs" || strings.HasPrefix(p, "docs/") {
				t.Errorf("%s imports %s: calls into the system belong in layers.go", name, p)
			}
		}
	}
}
