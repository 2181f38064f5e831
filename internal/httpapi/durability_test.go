package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"docs"
)

// TestServerWALRestart is the end-to-end durability check: publish and
// collect answers over HTTP with -wal-dir armed, shut the system down,
// boot a second server over the same directory, and verify the campaign —
// tasks, answers, per-task results — came back without re-publishing. The
// /stats durability fields must reflect the recovery.
func TestServerWALRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := docs.Config{GoldenCount: -1, HITSize: 3, WALDir: dir, RerunEvery: 5}

	srv1, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	resp, _ := doJSON(t, "POST", ts1.URL+"/c/solo/publish", publishBody())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: %d", resp.StatusCode)
	}
	for i := 0; i < 4; i++ {
		w := fmt.Sprintf("w%d", i)
		resp, out := doJSON(t, "GET", ts1.URL+"/c/solo/request?worker="+w+"&k=3", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request: %d", resp.StatusCode)
		}
		var batch struct {
			ID int `json:"id"`
		}
		var tasks []json.RawMessage
		if err := json.Unmarshal(out["tasks"], &tasks); err != nil {
			t.Fatal(err)
		}
		for _, raw := range tasks {
			if err := json.Unmarshal(raw, &batch); err != nil {
				t.Fatal(err)
			}
			resp, _ := doJSON(t, "POST", ts1.URL+"/c/solo/submit",
				map[string]any{"worker": w, "task": batch.ID, "choice": batch.ID % 2})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
		}
	}
	sys1, err := srv1.reg.Campaign("solo")
	if err != nil {
		t.Fatal(err)
	}
	live := sys1.Stats()
	wantResults := map[int]docs.Result{}
	for id := 0; id < 3; id++ {
		wantResults[id] = sys1.CurrentResult(id)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil { // graceful shutdown: flush + fsync
		t.Fatal(err)
	}

	srv2, err := New(cfg, Options{})
	if err != nil {
		t.Fatalf("reboot over WAL dir: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	sys2, err := srv2.reg.Campaign("solo")
	if err != nil {
		t.Fatal(err)
	}
	rec := sys2.Recovery()
	if !rec.Enabled || rec.TornTail {
		t.Fatalf("recovery = %+v, want enabled and clean", rec)
	}
	if !sys2.Published() {
		t.Fatal("recovered server does not know the campaign is published")
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if got := sys2.Stats(); got.Answers != live.Answers {
		t.Fatalf("recovered %d answers, live had %d", got.Answers, live.Answers)
	}
	for id, want := range wantResults {
		got := sys2.CurrentResult(id)
		if got.Choice != want.Choice {
			t.Errorf("task %d: recovered choice %d, want %d", id, got.Choice, want.Choice)
		}
	}
	// A second publish must be rejected — the recovered campaign owns the
	// task set.
	resp, _ = doJSON(t, "POST", ts2.URL+"/c/solo/publish", publishBody())
	if resp.StatusCode == http.StatusOK {
		t.Error("re-publish over a recovered campaign succeeded")
	}
	// Serving continues: stats advertise the WAL, recovery lag and the
	// recovered publish flag straight from the core.
	resp, out := doJSON(t, "GET", ts2.URL+"/c/solo/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st statsJSON
	raw, _ := json.Marshal(out)
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !st.WALEnabled || st.Records == 0 || st.WALLastSeq == 0 {
		t.Errorf("stats missing durability fields: %+v", st)
	}
	if !st.Published {
		t.Error("/stats reports published=false after recovery restored the campaign")
	}
}

// TestServerMultiCampaignRestart reboots a server hosting several
// campaigns over one WAL root: every campaign must come back with its own
// answers, the shared worker store must keep carrying profiles across
// campaigns, and an archived campaign must stay archived.
func TestServerMultiCampaignRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := docs.Config{GoldenCount: -1, HITSize: 3, WALDir: dir, RerunEvery: 5}

	srv1, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	names := []string{"a1", "a2", "a3"}
	answers := map[string]int64{}
	for i, name := range names {
		if resp, out := doJSON(t, "POST", ts1.URL+"/c/"+name+"/publish", publishBody()); resp.StatusCode != 200 {
			t.Fatalf("publish %s = %d: %s", name, resp.StatusCode, out["error"])
		}
		for task := 0; task <= i; task++ {
			if resp, out := doJSON(t, "POST", ts1.URL+"/c/"+name+"/submit",
				map[string]any{"worker": "w", "task": task, "choice": 0}); resp.StatusCode != 200 {
				t.Fatalf("submit %s = %d: %s", name, resp.StatusCode, out["error"])
			}
			answers[name]++
		}
	}
	if resp, _ := doJSON(t, "POST", ts1.URL+"/c/a3/archive", nil); resp.StatusCode != 200 {
		t.Fatal("archive failed")
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg, Options{})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, out := doJSON(t, "GET", ts2.URL+"/campaigns", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("campaigns = %d", resp.StatusCode)
	}
	var list []docs.CampaignInfo
	if err := json.Unmarshal(out["campaigns"], &list); err != nil {
		t.Fatal(err)
	}
	byName := map[string]docs.CampaignInfo{}
	for _, c := range list {
		byName[c.Name] = c
	}
	for _, name := range []string{"a1", "a2"} {
		c, ok := byName[name]
		if !ok {
			t.Fatalf("campaign %s missing after reboot", name)
		}
		if c.Archived || !c.Published || c.Answers != answers[name] {
			t.Errorf("campaign %s = %+v, want live, published, %d answers", name, c, answers[name])
		}
	}
	if c := byName["a3"]; !c.Archived {
		t.Errorf("a3 = %+v, want archived after reboot", c)
	}
	if resp, _ := doJSON(t, "GET", ts2.URL+"/c/a3/request?worker=w&k=1", nil); resp.StatusCode != http.StatusGone {
		t.Errorf("archived campaign request = %d, want 410", resp.StatusCode)
	}
	// Live campaigns serve on, with separate answer streams.
	if resp, _ := doJSON(t, "POST", ts2.URL+"/c/a1/submit",
		map[string]any{"worker": "w2", "task": 2, "choice": 1}); resp.StatusCode != 200 {
		t.Errorf("submit after reboot = %d", resp.StatusCode)
	}
}
