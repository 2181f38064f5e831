package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// newClient returns an HTTP client that holds exactly one keep-alive
// connection, the closed-loop generator's unit of concurrency.
func newClient() *http.Client {
	return &http.Client{
		Timeout: callTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		},
	}
}

// call performs one HTTP call that must answer 200 and returns the whole
// body; the latency covers send → body read.
func call(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, data)
	}
	return data, lat, err
}

// getJSON performs a GET and decodes its body.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) (time.Duration, error) {
	data, lat, err := call(ctx, hc, http.MethodGet, url, nil)
	if err != nil {
		return lat, err
	}
	return lat, json.Unmarshal(data, out)
}

// clientLog is everything one closed-loop client observed. Each client
// fills its own; they are merged after both have finished.
type clientLog struct {
	requestLat, submitLat []time.Duration
	calls                 int // HTTP calls made
	attempted, failed     int // calls, or items of a batch call
	firstErr              error
	sent                  []sentAnswer // accepted non-golden answers
	goldenAcked           int
	emptyVisits           int
	violations            []string
	// served[worker][campaign] is the set of task IDs the worker has been
	// handed there, to catch a task served twice to one worker.
	served map[[2]int]map[int]bool
}

func (l *clientLog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// runLoad drives both clients' plans to completion against base and
// returns their logs and the load phase's wall time.
func runLoad(ctx context.Context, base string, w *workload, golden []map[int]bool) ([clients]*clientLog, time.Duration) {
	var logs [clients]*clientLog
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		logs[c] = &clientLog{served: map[[2]int]map[int]bool{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for _, v := range w.plans[c] {
				if ctx.Err() != nil {
					return
				}
				if w.spec.ingest() {
					ingestVisit(ctx, hc, base, w, v, logs[c])
				} else {
					requestVisit(ctx, hc, base, w, v, golden[v.campaign], logs[c])
				}
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start)
}

// requestVisit is one worker visit: GET /request for k tasks, then one
// POST /submit per served task.
func requestVisit(ctx context.Context, hc *http.Client, base string, w *workload, v visit, golden map[int]bool, l *clientLog) {
	cp := &w.campaigns[v.campaign]
	wk := w.workers[v.worker]
	url := fmt.Sprintf("%s/c/%s/request?worker=%s&k=%d", base, cp.name, wk.ID, w.spec.k)
	l.calls++
	l.attempted++
	data, lat, err := call(ctx, hc, http.MethodGet, url, nil)
	var got struct {
		Tasks []struct {
			ID int `json:"id"`
		} `json:"tasks"`
	}
	if err == nil {
		err = json.Unmarshal(data, &got)
	}
	if err != nil {
		l.fail(fmt.Errorf("request: %w", err))
		return
	}
	l.requestLat = append(l.requestLat, lat)
	if len(got.Tasks) > w.spec.k {
		l.violations = append(l.violations, fmt.Sprintf("%s served %d tasks for k=%d", url, len(got.Tasks), w.spec.k))
	}
	if len(got.Tasks) == 0 {
		l.emptyVisits++
		return
	}
	key := [2]int{v.worker, v.campaign}
	seen := l.served[key]
	if seen == nil {
		seen = map[int]bool{}
		l.served[key] = seen
	}
	submitURL := base + "/c/" + cp.name + "/submit"
	for _, t := range got.Tasks {
		if t.ID < 0 || t.ID >= len(cp.tasks) {
			l.violations = append(l.violations, fmt.Sprintf("%s served unknown task %d", url, t.ID))
			continue
		}
		if seen[t.ID] {
			l.violations = append(l.violations, fmt.Sprintf("task %d served twice to %s in %s", t.ID, wk.ID, cp.name))
			continue
		}
		seen[t.ID] = true
		choice := wk.answer(w.seed, v.campaign, &cp.tasks[t.ID])
		l.calls++
		l.attempted++
		_, lat, err := call(ctx, hc, http.MethodPost, submitURL, submitBody(wk.ID, t.ID, choice))
		if err != nil {
			l.fail(fmt.Errorf("submit %s task %d: %w", wk.ID, t.ID, err))
			continue
		}
		l.submitLat = append(l.submitLat, lat)
		if golden[t.ID] {
			l.goldenAcked++
		} else {
			l.sent = append(l.sent, sentAnswer{campaign: v.campaign, task: t.ID, choice: choice})
		}
	}
}

// ingestVisit is one pre-generated POST /submit-batch; every item must be
// accepted.
func ingestVisit(ctx context.Context, hc *http.Client, base string, w *workload, v visit, l *clientLog) {
	url := base + "/c/" + w.campaigns[0].name + "/submit-batch"
	l.calls++
	l.attempted += len(v.answers)
	data, lat, err := call(ctx, hc, http.MethodPost, url, v.body)
	var got struct {
		Accepted int `json:"accepted"`
	}
	if err == nil {
		err = json.Unmarshal(data, &got)
	}
	if err == nil && got.Accepted != len(v.answers) {
		err = fmt.Errorf("%d of %d items accepted: %.300s", got.Accepted, len(v.answers), data)
	}
	if err != nil {
		// Only a fully accepted body counts as acknowledged.
		l.failed += len(v.answers) - got.Accepted - 1
		l.fail(fmt.Errorf("submit-batch: %w", err))
		return
	}
	l.submitLat = append(l.submitLat, lat)
	l.sent = append(l.sent, v.answers...)
}
