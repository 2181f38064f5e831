package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"docs"
	"docs/internal/experiment"
	"docs/internal/httpapi"
	"docs/internal/wal"
)

// httpRow is one machine-readable measurement of the http experiment,
// emitted to the -http-json artifact (BENCH_http.json in CI).
type httpRow struct {
	Mode          string  `json:"mode"`
	Batch         int     `json:"batch"`
	Answers       int     `json:"answers"`
	ElapsedSec    float64 `json:"elapsed_seconds"`
	AnswersPerSec float64 `json:"answers_per_sec"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	P999Ms        float64 `json:"p999_ms"`
	Workers       int     `json:"workers"`
	OfferedRate   float64 `json:"offered_answers_per_sec"`
}

// httpLoad returns a runner measuring the HTTP serving path end to end:
// an open-loop load generator drives Request→Submit visits against the
// real handler (docs/internal/httpapi) over real TCP with keep-alive
// connection reuse, a WAL directory, and per-group fsync — the paper
// system's most honest serving configuration. Three wire strategies
// carry identical traffic:
//
//	single     one POST /submit per answer (the legacy protocol)
//	batch-json POST /submit-batch, JSON body, batch answers per call
//	batch-bin  POST /submit-batch, binary framed body (docs/protocol.md)
//
// The generator is open-loop in the wrk2 sense: visit i is *scheduled*
// at t0 + i/rate regardless of how long earlier visits took, so a slow
// server accumulates backlog instead of silently throttling the offered
// load (closed-loop generators suffer coordinated omission and flatter
// tails). Workers pull visit indices from one atomic counter; a visit
// behind schedule starts immediately. The default rate is 0 = unthrottled:
// every visit is due at t0, the offered load is effectively infinite, and
// the measured answers/sec is the sustainable capacity of that wire
// strategy. Each visit uses a fresh worker ID, so the simulated
// population is thousands of workers and no visit exhausts its
// answerable-task set.
//
// Latency samples are per submitting HTTP call — one per answer in
// single mode, one per batch otherwise — because that is the unit a
// client blocks on; answers/sec counts accepted answers over the whole
// window either way, which is what makes the modes comparable.
func httpLoad(rate *float64, clients *int, batch *int, jsonOut *string) func(seed uint64, quick bool) (*experiment.Table, error) {
	return func(seed uint64, quick bool) (*experiment.Table, error) {
		answers, workers := 48000, 128
		if quick {
			answers, workers = 6000, 32
		}
		if *clients > 0 {
			workers = *clients
		}
		b := *batch
		if b <= 0 {
			b = 64
		}
		tb := &experiment.Table{
			Title:  "HTTP serving — open-loop load, single vs batched submission (WAL + fsync)",
			Header: []string{"mode", "batch", "answers", "answers/sec", "p50", "p99", "p99.9"},
		}
		var rows []httpRow
		for _, mode := range []string{"single", "batch-json", "batch-bin"} {
			row, err := httpLoadOne(mode, answers, b, workers, *rate)
			if err != nil {
				return nil, fmt.Errorf("http %s: %w", mode, err)
			}
			rows = append(rows, *row)
			tb.AddRow(mode, fmt.Sprintf("%d", row.Batch), fmt.Sprintf("%d", row.Answers),
				fmt.Sprintf("%.0f", row.AnswersPerSec),
				fmt.Sprintf("%.2fms", row.P50Ms), fmt.Sprintf("%.2fms", row.P99Ms),
				fmt.Sprintf("%.2fms", row.P999Ms))
		}
		tb.Notes = append(tb.Notes,
			"real TCP + keep-alive against the docs-server handler; WAL enabled, fsync once per group commit",
			"open-loop arrivals (visit i due at t0+i/rate); -http-rate 0 = unthrottled, measuring sustainable capacity",
			"latency is per submitting HTTP call: per answer in single mode, per batch otherwise",
			fmt.Sprintf("speedup batched vs single: json %.1fx, binary %.1fx",
				rows[1].AnswersPerSec/rows[0].AnswersPerSec, rows[2].AnswersPerSec/rows[0].AnswersPerSec))
		if jsonOut != nil && *jsonOut != "" {
			blob, err := json.MarshalIndent(map[string]any{"experiment": "http", "rows": rows}, "", "  ")
			if err != nil {
				return nil, err
			}
			if dir := filepath.Dir(*jsonOut); dir != "." {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					return nil, err
				}
			}
			if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
				return nil, err
			}
			tb.Notes = append(tb.Notes, "machine-readable rows written to "+*jsonOut)
		}
		return tb, nil
	}
}

// httpLoadOne boots a fresh durable server, publishes a campaign over
// HTTP, and drives totalAnswers answers through it with the given wire
// strategy.
func httpLoadOne(mode string, totalAnswers, batch, workers int, rate float64) (*httpRow, error) {
	dir, err := os.MkdirTemp("", "docs-httpbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := httpapi.New(docs.Config{
		WALDir:            dir,
		WALSyncEveryBatch: true, // the honest configuration: acks survive power loss
		GoldenCount:       -1,   // no gauntlet: fresh workers submit immediately
		RerunEvery:        -1,   // measure the serving path, not EM re-inference
		SnapshotEvery:     -1,
		HITSize:           batch,
	}, httpapi.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String() + "/c/bench"

	// One shared transport: every worker goroutine reuses the same
	// keep-alive pool, the configuration docs-simulate -server uses too.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        workers + 8,
		MaxIdleConnsPerHost: workers + 8,
	}}
	defer client.CloseIdleConnections()

	const nTasks = 256
	type pubTask struct {
		ID          int      `json:"id"`
		Text        string   `json:"text"`
		Choices     []string `json:"choices"`
		GoldenTruth int      `json:"golden_truth"`
	}
	pub := struct {
		Tasks []pubTask `json:"tasks"`
	}{Tasks: make([]pubTask, nTasks)}
	for i := range pub.Tasks {
		pub.Tasks[i] = pubTask{ID: i, Text: fmt.Sprintf("t%d", i),
			Choices: []string{"a", "b"}, GoldenTruth: docs.NoTruth}
	}
	blob, err := json.Marshal(pub)
	if err != nil {
		return nil, err
	}
	if err := postOK(client, base+"/publish", "application/json", blob); err != nil {
		return nil, fmt.Errorf("publish: %w", err)
	}

	visits := (totalAnswers + batch - 1) / batch
	visitRate := 0.0 // visits/sec; 0 = every visit due at t0
	if rate > 0 {
		visitRate = rate / float64(batch)
	}
	var next atomic.Int64
	var accepted atomic.Int64
	lats := make([][]time.Duration, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(visits) {
					return
				}
				if visitRate > 0 {
					due := t0.Add(time.Duration(float64(i) / visitRate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				n, ls, err := httpVisit(client, base, mode, fmt.Sprintf("lw%d", i), batch)
				if err != nil {
					errs <- fmt.Errorf("visit %d: %w", i, err)
					return
				}
				accepted.Add(int64(n))
				lats[g] = append(lats[g], ls...)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errs)
	for err := range errs {
		return nil, err
	}
	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return &httpRow{
		Mode:          mode,
		Batch:         batch,
		Answers:       int(accepted.Load()),
		ElapsedSec:    elapsed.Seconds(),
		AnswersPerSec: float64(accepted.Load()) / elapsed.Seconds(),
		P50Ms:         pctlMs(all, 0.50),
		P99Ms:         pctlMs(all, 0.99),
		P999Ms:        pctlMs(all, 0.999),
		Workers:       workers,
		OfferedRate:   rate,
	}, nil
}

// httpVisit performs one Request→Submit round trip for a fresh worker:
// fetch up to batch tasks, answer each, submit with the given wire
// strategy. Returns accepted answers and one latency sample per
// submitting HTTP call.
func httpVisit(client *http.Client, base, mode, worker string, batch int) (int, []time.Duration, error) {
	resp, err := client.Get(fmt.Sprintf("%s/request?worker=%s&k=%d", base, worker, batch))
	if err != nil {
		return 0, nil, err
	}
	var got struct {
		Tasks []struct {
			ID int `json:"id"`
		} `json:"tasks"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("request: status %d", resp.StatusCode)
	}
	if len(got.Tasks) == 0 {
		return 0, nil, fmt.Errorf("request: no tasks for %s", worker)
	}

	switch mode {
	case "single":
		lats := make([]time.Duration, 0, len(got.Tasks))
		for _, t := range got.Tasks {
			body, err := json.Marshal(map[string]any{"worker": worker, "task": t.ID, "choice": t.ID % 2})
			if err != nil {
				return 0, nil, err
			}
			start := time.Now()
			if err := postOK(client, base+"/submit", "application/json", body); err != nil {
				return 0, nil, err
			}
			lats = append(lats, time.Since(start))
		}
		return len(got.Tasks), lats, nil

	case "batch-json":
		req := struct {
			Answers []map[string]any `json:"answers"`
		}{}
		for _, t := range got.Tasks {
			req.Answers = append(req.Answers, map[string]any{"worker": worker, "task": t.ID, "choice": t.ID % 2})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return 0, nil, err
		}
		return submitBatch(client, base, "application/json", body)

	case "batch-bin":
		recs := make([]wal.Record, len(got.Tasks))
		for i, t := range got.Tasks {
			recs[i] = wal.Record{Worker: worker, Task: t.ID, Choice: t.ID % 2}
		}
		return submitBatch(client, base, httpapi.BatchContentType, wal.EncodeBatch(nil, recs))

	default:
		return 0, nil, fmt.Errorf("unknown mode %q", mode)
	}
}

// submitBatch posts one batch body and returns the server's accepted
// count plus the single latency sample for the call.
func submitBatch(client *http.Client, base, contentType string, body []byte) (int, []time.Duration, error) {
	start := time.Now()
	resp, err := client.Post(base+"/submit-batch", contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	var out struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("submit-batch: status %d", resp.StatusCode)
	}
	if out.Rejected > 0 {
		return 0, nil, fmt.Errorf("submit-batch: %d items rejected", out.Rejected)
	}
	return out.Accepted, []time.Duration{lat}, nil
}

// postOK posts a body and fails unless the response is 200; the body is
// drained so the keep-alive connection returns to the pool.
func postOK(client *http.Client, url, contentType string, body []byte) error {
	resp, err := client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, msg)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// pctlMs reads the p'th percentile from a sorted latency slice, in
// milliseconds.
func pctlMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)-1) + 0.5)
	return float64(sorted[i]) / float64(time.Millisecond)
}
