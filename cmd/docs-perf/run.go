package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"
)

// statsJSON is the subset of GET /c/{c}/stats the benchmark reads. Pointer
// fields tell a missing field (metric absent) from a zero.
type statsJSON struct {
	Published             bool     `json:"published"`
	Answers               int64    `json:"answers"`
	RerunsCompleted       *int64   `json:"reruns_completed"`
	WakesTotal            *int64   `json:"wakes_total"`
	WakeP50Ms             *float64 `json:"wake_p50_ms"`
	WakeP99Ms             *float64 `json:"wake_p99_ms"`
	WALLastSeq            *uint64  `json:"wal_last_seq"`
	SnapshotsCompleted    *int64   `json:"snapshots_completed"`
	SnapshotLastSeq       *uint64  `json:"snapshot_last_seq"`
	RecoveredRecords      *int64   `json:"recovered_records"`
	RecoveredFromSnapshot *bool    `json:"recovered_from_snapshot"`
}

// runServer drives workload w at docs-server subprocesses and fills rep
// with every end-to-end metric and every per-layer metric counted from
// outside the process.
//
// A run is spec.episodes episodes, each the life of one server over a
// fresh directory: set-up, the whole visit plan, kill -9. Every metric of
// those phases is the median of its per-episode values, so a burst of
// machine noise shorter than half the run moves none of them. The last
// episode goes on through the restart, /results and a graceful exit, whose
// metrics are therefore single readings.
func runServer(ctx context.Context, bin, tmp string, w *workload, rep *report) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var episodes []*report
	for i := 0; i < w.spec.episodes; i++ {
		e := &episode{w: w, hc: hc, bin: bin, rep: &report{}, obs: observed{spec: w.spec}}
		err := e.load(ctx, tmp)
		if err == nil && i == w.spec.episodes-1 {
			err = e.recover(ctx)
		}
		e.close()
		if err != nil {
			return fmt.Errorf("episode %d: %w", i, err)
		}
		e.rep.problems = append(e.rep.problems, e.obs.check()...)
		episodes = append(episodes, e.rep)
	}
	m := medianReport(episodes)
	rep.metrics = append(rep.metrics, m.metrics...)
	rep.attempted, rep.failed, rep.problems = m.attempted, m.failed, m.problems
	return nil
}

// episode is one server's life over one fresh -wal-dir.
type episode struct {
	w   *workload
	hc  *http.Client
	bin string
	rep *report
	obs observed

	walDir string
	srv    *server
	golden []map[int]bool // per campaign, as the server selected them
	sent   []sentAnswer   // acknowledged non-golden answers
	// perCampaign counts sent by campaign; probe is the campaign with the
	// most, the one whose /stats and /results are read.
	perCampaign []int64
	probe       int
}

// close kills whatever server is still running and removes the directory.
func (e *episode) close() {
	if e.srv != nil {
		e.srv.kill()
	}
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
}

func (e *episode) probePath() string { return "/c/" + e.w.campaigns[e.probe].name }

// load sets a server up, drives the whole visit plan at it, checks its
// counts against the harness's, kills it with SIGKILL right after the last
// acknowledgement and prices what is on disk.
func (e *episode) load(ctx context.Context, tmp string) error {
	w, sp, rep := e.w, e.w.spec, e.rep
	var err error
	if e.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
		return err
	}

	// Set-up: spawn → /healthz → every campaign published (DVE runs here).
	start := time.Now()
	if e.srv, err = startServer(ctx, e.bin, e.walDir, sp.serverFlags()); err != nil {
		return err
	}
	if e.golden, err = publishAll(ctx, e.hc, e.srv.base, w); err != nil {
		return fmt.Errorf("publish: %w\n%s", err, e.srv.output())
	}
	setupS := time.Since(start).Seconds()

	before, err := e.srv.sample()
	if err != nil {
		return err
	}
	logs, wall := runLoad(ctx, e.srv.base, w, e.golden)
	after, err := e.srv.sample()
	if err != nil {
		return err
	}
	var (
		requestLat, submitLat           []time.Duration
		calls, goldenAcked, emptyVisits int
	)
	for _, l := range logs {
		requestLat = append(requestLat, l.requestLat...)
		submitLat = append(submitLat, l.submitLat...)
		e.sent = append(e.sent, l.sent...)
		calls += l.calls
		goldenAcked += l.goldenAcked
		emptyVisits += l.emptyVisits
		rep.attempted += l.attempted
		rep.failed += l.failed
		e.obs.violations = append(e.obs.violations, l.violations...)
		if l.firstErr != nil {
			rep.problems = append(rep.problems, l.firstErr.Error())
		}
	}
	if len(e.sent) == 0 || len(submitLat) == 0 {
		return fmt.Errorf("no answer was acknowledged (first error: %v)\n%s", logs[0].firstErr, e.srv.output())
	}
	answers := float64(len(e.sent) + goldenAcked)

	// The probe campaign is the only one whose /stats is read while the
	// load's server is up: /stats wakes a hibernated campaign, GET
	// /campaigns does not.
	e.perCampaign = make([]int64, len(w.campaigns))
	for _, a := range e.sent {
		e.perCampaign[a.campaign]++
	}
	for c, n := range e.perCampaign {
		if n > e.perCampaign[e.probe] {
			e.probe = c
		}
	}
	e.obs.ackedTotal, e.obs.ackedProbe = int64(len(e.sent)), e.perCampaign[e.probe]
	var listing struct {
		Campaigns []struct {
			Answers int64 `json:"answers"`
		} `json:"campaigns"`
	}
	if _, err := getJSON(ctx, e.hc, e.srv.base+"/campaigns", &listing); err != nil {
		return err
	}
	for _, c := range listing.Campaigns {
		e.obs.campaignsAnswers += c.Answers
	}
	var st statsJSON
	if _, err := getJSON(ctx, e.hc, e.srv.base+e.probePath()+"/stats", &st); err != nil {
		return err
	}
	e.obs.statsAnswers = st.Answers

	e.srv.kill()
	disk, err := measureDisk(e.walDir)
	if err != nil {
		return err
	}

	// End-to-end metrics: what a worker, a requester or an operator sees.
	cpuS := (after.userS - before.userS) + (after.sysS - before.sysS)
	rep.add(endToEnd, "setup_s", "s", setupS)
	rep.add(endToEnd, "rss_peak_mib", "MiB", after.peakRSSMiB)
	rep.add(endToEnd, "disk_bytes_per_answer", "B", float64(disk.total)/answers)
	// What a worker and an operator see of the load phase, but reported as
	// per-layer metrics: the reference machine's speed moves by up to a
	// factor of two over minutes, so runs of the same code spread every
	// timing past any bound worth setting (README.md, Calibration).
	rep.add(perLayer, "answers_per_s", "1/s", answers/wall.Seconds())
	rep.add(perLayer, "submit_p50_ms", "ms", quantileMs(submitLat, 0.50))
	rep.add(perLayer, "cpu_ms_per_answer", "ms", 1000*cpuS/answers)
	if len(requestLat) > 0 {
		rep.add(extra, "request_p50_ms", "ms", quantileMs(requestLat, 0.50))
	}
	if len(submitLat) >= 1000 {
		rep.add(extra, "submit_p99_ms", "ms", quantileMs(submitLat, 0.99))
	}
	rep.add(extra, "failed_share", "share", float64(rep.failed)/float64(rep.attempted))
	rep.add(extra, "load_s", "s", wall.Seconds())
	var sum time.Duration
	for _, d := range submitLat {
		sum += d
	}
	rep.add(extra, submitMeanUs, "us", float64(sum.Microseconds())/float64(len(submitLat)))

	// Per-layer metrics counted from outside the process.
	visits := float64(len(w.plans[0]) + len(w.plans[1]))
	rep.add(perLayer, "httpapi.calls", "count", float64(calls))
	if len(requestLat) >= 1000 {
		rep.add(extra, "httpapi.request_p99_ms", "ms", quantileMs(requestLat, 0.99))
	}
	rep.add(extra, "httpapi.empty_visits", "count", float64(emptyVisits))
	if st.WakesTotal != nil {
		rep.add(perLayer, "registry.wakes_per_visit", "1/visit", float64(*st.WakesTotal)/visits)
		if *st.WakesTotal > 0 && st.WakeP50Ms != nil && st.WakeP99Ms != nil {
			rep.add(extra, "registry.wake_p50_ms", "ms", *st.WakeP50Ms)
			rep.add(extra, "registry.wake_p99_ms", "ms", *st.WakeP99Ms)
		}
	}
	if st.RerunsCompleted != nil {
		rep.add(perLayer, "truth.reruns_per_kanswer", "1/k", 1000*float64(*st.RerunsCompleted)/float64(e.obs.ackedProbe))
	}
	if st.WALLastSeq != nil {
		rep.add(perLayer, "wal.records_per_answer", "1/answer", float64(*st.WALLastSeq)/float64(e.obs.ackedProbe))
		if st.SnapshotLastSeq != nil {
			rep.add(perLayer, "snapshot.lag_records", "count", float64(*st.WALLastSeq-*st.SnapshotLastSeq))
		}
	}
	rep.add(perLayer, "wal.segment_bytes_per_answer", "B", float64(disk.segments)/answers)
	rep.add(perLayer, "wal.checkpoint_bytes", "B", float64(disk.checkpoints))
	if st.SnapshotsCompleted != nil {
		rep.add(perLayer, "snapshot.completed", "count", float64(*st.SnapshotsCompleted))
	}
	rep.add(perLayer, "snapshot.bytes", "B", float64(disk.snapshots))
	rep.add(perLayer, "store.bytes", "B", float64(disk.store))
	rep.add(perLayer, "proc.cpu_user_s", "s", after.userS-before.userS)
	rep.add(perLayer, "proc.cpu_sys_s", "s", after.sysS-before.sysS)
	rep.add(perLayer, "proc.write_syscalls_per_answer", "1/answer", float64(after.writeCalls-before.writeCalls)/answers)
	return nil
}

// recover restarts the killed server over the same directory and times it:
// recovered means every campaign that took answers serves its /stats again
// (which is what wakes the cold ones under a resident cap), each still
// counting exactly the answers the harness saw acknowledged. /results is
// then read from the recovered, quiet server, which must exit cleanly on
// SIGTERM.
func (e *episode) recover(ctx context.Context) error {
	w, rep := e.w, e.rep
	respawn := time.Now()
	var err error
	if e.srv, err = startServer(ctx, e.bin, e.walDir, w.spec.serverFlags()); err != nil {
		e.srv = nil
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	var rst statsJSON
	for c, n := range e.perCampaign {
		if n == 0 {
			continue
		}
		var got statsJSON
		if _, err := getJSON(ctx, e.hc, e.srv.base+"/c/"+w.campaigns[c].name+"/stats", &got); err != nil {
			return fmt.Errorf("restart after kill -9: %w", err)
		}
		if !got.Published || got.Answers != n {
			e.obs.violations = append(e.obs.violations, fmt.Sprintf("%s: published=%v with %d answers after kill -9 and restart, harness acked %d",
				w.campaigns[c].name, got.Published, got.Answers, n))
		}
		e.obs.recoveredAnswers += got.Answers
		if c == e.probe {
			rst = got
		}
	}
	rep.add(perLayer, "recover_s", "s", time.Since(respawn).Seconds())

	var res struct {
		Results []result `json:"results"`
	}
	resultsLat, err := getJSON(ctx, e.hc, e.srv.base+e.probePath()+"/results", &res)
	if err != nil {
		return err
	}
	e.obs.recovered = true
	e.obs.accuracy, e.obs.mvAccuracy, e.obs.scored = score(res.Results, w.campaigns[e.probe].tasks, e.golden[e.probe], e.sent, e.probe)

	closeD, err := e.srv.terminate()
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	rep.add(perLayer, "registry.close_s", "s", closeD.Seconds())
	rep.add(perLayer, "core.results_s", "s", resultsLat.Seconds())
	rep.add(perLayer, "truth.accuracy", "share", e.obs.accuracy)
	rep.add(perLayer, "truth.accuracy_minus_mv", "share", e.obs.accuracy-e.obs.mvAccuracy)
	if rst.RecoveredRecords != nil {
		rep.add(perLayer, "core.recovered_records", "count", float64(*rst.RecoveredRecords))
	}
	if rst.RecoveredFromSnapshot != nil {
		v := 0.0
		if *rst.RecoveredFromSnapshot {
			v = 1
		}
		rep.add(perLayer, "core.recovered_from_snapshot", "bool", v)
	}
	return nil
}

// submitMeanUs names the mean time of a submitting call, which the traced
// ladder compares its top rung with.
const submitMeanUs = "submit_mean_us"

// publishAll publishes every campaign and returns each one's golden task
// set, as the server selected it.
func publishAll(ctx context.Context, hc *http.Client, base string, w *workload) ([]map[int]bool, error) {
	golden := make([]map[int]bool, len(w.campaigns))
	for i, c := range w.campaigns {
		data, _, err := call(ctx, hc, http.MethodPost, base+"/c/"+c.name+"/publish", c.publish)
		if err != nil {
			return nil, err
		}
		var got struct {
			Golden []int `json:"golden"`
		}
		if err := json.Unmarshal(data, &got); err != nil {
			return nil, err
		}
		golden[i] = map[int]bool{}
		for _, id := range got.Golden {
			golden[i][id] = true
		}
	}
	return golden, nil
}
