package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"docs"
)

// statsKeys is the GET /c/{campaign}/stats wire format on a campaign with
// no rejected snapshot (recovery_snapshot_rejected is omitted while empty).
var statsKeys = []string{
	"answers", "answers_per_sec", "batch_answers_mean", "batch_answers_total", "batches_total",
	"campaign", "campaigns_archived", "campaigns_hibernated", "campaigns_live", "goroutines",
	"index_epoch", "leases_active", "open_tasks", "published", "recovered_from_snapshot",
	"recovered_records", "recovered_torn_tail", "recovery_seconds", "recovery_snapshot_seq",
	"reruns_completed", "reruns_failed", "snapshot_epoch", "snapshot_last_seq", "snapshots_completed",
	"uptime_seconds", "wake_p50_ms", "wake_p99_ms", "wakes_total", "wal_enabled", "wal_last_seq",
}

// campaignKeys is the wire format of one GET /campaigns entry.
var campaignKeys = []string{"answers", "archived", "hibernated", "name", "published", "recovered_records", "wakes"}

// keysOf returns the sorted keys of a decoded JSON object.
func keysOf(obj map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatsWireContract pins the key sets of /stats and GET /campaigns on
// one seeded trace — a publish, single submits, a batch, an archived
// campaign, a restart — and holds every campaign key of /stats to the JSON
// encoding of the campaign's own counters (docs.Stats, and the recovery
// and publish state it reports), read while nothing serves. The registry
// keys are held to the GET /campaigns listing.
func TestStatsWireContract(t *testing.T) {
	cfg := docs.Config{GoldenCount: -1, HITSize: 3, WALDir: t.TempDir(), RerunEvery: 4}
	serve := func() (*Server, *httptest.Server) {
		srv, err := New(cfg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	post := func(ts *httptest.Server, path string, body any) {
		t.Helper()
		if resp, out := doJSON(t, "POST", ts.URL+path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, out["error"])
		}
	}

	srv, ts := serve()
	tasks := make([]map[string]any, 8)
	for i := range tasks {
		tasks[i] = map[string]any{"id": i, "text": fmt.Sprintf("Is the Eiffel Tower taller than %d metres?", 100*(i+1)),
			"choices": []string{"yes", "no"}, "golden_truth": -1}
	}
	post(ts, "/c/pin/publish", map[string]any{"tasks": tasks})
	post(ts, "/campaigns", map[string]string{"name": "gone"})
	post(ts, "/c/gone/archive", nil)
	rng := rand.New(rand.NewSource(20160412))
	for w := 0; w < 4; w++ {
		for task := 0; task < 4; task++ {
			post(ts, "/c/pin/submit", map[string]any{"worker": fmt.Sprintf("w%d", w), "task": task, "choice": rng.Intn(2)})
		}
	}
	var batch []map[string]any
	for w := 4; w < 6; w++ {
		for task := 4; task < 8; task++ {
			batch = append(batch, map[string]any{"worker": fmt.Sprintf("w%d", w), "task": task, "choice": rng.Intn(2)})
		}
	}
	post(ts, "/c/pin/submit-batch", map[string]any{"answers": batch})
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, ts = serve()
	t.Cleanup(func() { ts.Close(); srv.Close() })
	sys, err := srv.Registry().Campaign("pin")
	if err != nil {
		t.Fatal(err)
	}
	// The campaign keys as the campaign's own reads encode them.
	campaign := func() map[string]any {
		st, rec := sys.Stats(), sys.Recovery()
		return map[string]any{
			"published": sys.Published(), "answers": st.Answers, "snapshot_epoch": st.SnapshotEpoch,
			"reruns_completed": st.RerunsCompleted, "reruns_failed": st.RerunsFailed,
			"open_tasks": st.OpenTasks, "index_epoch": st.IndexEpoch, "leases_active": st.LeasesActive,
			"batches_total": st.BatchesTotal, "batch_answers_total": st.BatchAnswersTotal,
			"wal_enabled": st.WALEnabled, "wal_last_seq": st.WALLastSeq, "snapshot_last_seq": st.SnapshotLastSeq,
			"recovered_records": rec.Records, "recovered_torn_tail": rec.TornTail,
			"recovered_from_snapshot": rec.SnapshotUsed, "recovery_snapshot_seq": rec.SnapshotSeq,
		}
	}
	want := campaign()
	_, stats := doJSON(t, "GET", ts.URL+"/c/pin/stats", nil)
	if again := campaign(); !reflect.DeepEqual(again, want) {
		t.Fatalf("the campaign moved while /stats read it: %v, then %v", want, again)
	}
	_, listing := doJSON(t, "GET", ts.URL+"/campaigns", nil)

	if got := keysOf(stats); !reflect.DeepEqual(got, statsKeys) {
		t.Errorf("/stats keys = %v, want %v", got, statsKeys)
	}
	for key, v := range want {
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stats[key], enc) {
			t.Errorf("/stats %s = %s, the campaign's counter encodes as %s", key, stats[key], enc)
		}
	}
	if answers, batches := want["answers"].(int64), want["batches_total"].(int64); answers != 24 || batches != 1 {
		t.Errorf("the trace left %d answers in %d batches, want 24 in 1", answers, batches)
	}

	if got := keysOf(listing); !reflect.DeepEqual(got, []string{"campaigns"}) {
		t.Errorf("GET /campaigns keys = %v, want [campaigns]", got)
	}
	var entries []map[string]json.RawMessage
	if err := json.Unmarshal(listing["campaigns"], &entries); err != nil {
		t.Fatal(err)
	}
	census := map[string]int64{}
	for _, e := range entries {
		if got := keysOf(e); !reflect.DeepEqual(got, campaignKeys) {
			t.Errorf("GET /campaigns entry %s keys = %v, want %v", e["name"], got, campaignKeys)
		}
		var c docs.CampaignInfo
		if err := json.Unmarshal(mustMarshal(t, e), &c); err != nil {
			t.Fatal(err)
		}
		switch {
		case c.Archived:
			census["campaigns_archived"]++
		case c.Hibernated:
			census["campaigns_hibernated"]++
		default:
			census["campaigns_live"]++
		}
		census["wakes_total"] += int64(c.Wakes)
	}
	if len(entries) != 2 {
		t.Errorf("GET /campaigns lists %d campaigns, want pin and gone", len(entries))
	}
	for _, key := range []string{"campaigns_live", "campaigns_hibernated", "campaigns_archived", "wakes_total"} {
		if got := string(stats[key]); got != fmt.Sprint(census[key]) {
			t.Errorf("/stats %s = %s, GET /campaigns counts %d", key, got, census[key])
		}
	}
}

// TestAnswersPerSecCountsOnlyServedAnswers: a restarted server replays its
// log's answers into /stats's answers, but not into answers_per_sec — a
// rate counts the answers the campaign's current core accepted over that
// core's age, and before any submit there are none.
func TestAnswersPerSecCountsOnlyServedAnswers(t *testing.T) {
	cfg := docs.Config{GoldenCount: -1, HITSize: 3, WALDir: t.TempDir()}
	srv, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if resp, out := doJSON(t, "POST", ts.URL+"/c/solo/publish", publishBody()); resp.StatusCode != http.StatusOK {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}
	const n = 6
	for i := 0; i < n; i++ {
		body := map[string]any{"worker": fmt.Sprintf("w%d", i/3), "task": i % 3, "choice": 0}
		if resp, out := doJSON(t, "POST", ts.URL+"/c/solo/submit", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("submit = %d: %s", resp.StatusCode, out["error"])
		}
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err = New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	var st struct {
		Answers       int64   `json:"answers"`
		AnswersPerSec float64 `json:"answers_per_sec"`
	}
	mustGetJSON(t, ts.URL+"/c/solo/stats", &st)
	if st.Answers != n || st.AnswersPerSec != 0 {
		t.Fatalf("restarted /stats reads answers %d at %g/s, want %d at 0/s: a replayed answer is no served one", st.Answers, st.AnswersPerSec, n)
	}
	if resp, out := doJSON(t, "POST", ts.URL+"/c/solo/submit", map[string]any{"worker": "w9", "task": 0, "choice": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d: %s", resp.StatusCode, out["error"])
	}
	mustGetJSON(t, ts.URL+"/c/solo/stats", &st)
	if st.Answers != n+1 || st.AnswersPerSec <= 0 {
		t.Fatalf("after one served submit /stats reads answers %d at %g/s, want %d at a positive rate", st.Answers, st.AnswersPerSec, n+1)
	}
}
