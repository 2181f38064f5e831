package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"docs"
	"docs/internal/wal"
)

func testServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// createCampaign creates an empty campaign and returns its route prefix.
func createCampaign(t *testing.T, ts *httptest.Server, name string) string {
	t.Helper()
	if resp, out := doJSON(t, "POST", ts.URL+"/campaigns", map[string]string{"name": name}); resp.StatusCode != http.StatusOK {
		t.Fatalf("create %s = %d: %s", name, resp.StatusCode, out["error"])
	}
	return ts.URL + "/c/" + name
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s %s: %v", method, url, err)
	}
	return resp, out
}

func publishBody() map[string]any {
	return map[string]any{
		"tasks": []map[string]any{
			{"id": 0, "text": "Does Michael Jordan win more NBA championships than Kobe Bryant?",
				"choices": []string{"yes", "no"}, "golden_truth": -1},
			{"id": 1, "text": "Which food contains more calories, Chocolate or Honey?",
				"choices": []string{"Chocolate", "Honey"}, "golden_truth": -1},
			{"id": 2, "text": "Compare the height of Mount Everest and K2.",
				"choices": []string{"Everest", "K2"}, "golden_truth": -1},
		},
	}
}

// TestServerLifecycle drives one campaign through every endpoint a
// requester and a worker use.
func TestServerLifecycle(t *testing.T) {
	ts, _ := testServer(t)
	base := createCampaign(t, ts, "solo")

	if resp, _ := doJSON(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Requests before publish are rejected.
	if resp, _ := doJSON(t, "GET", base+"/request?worker=w1", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("pre-publish request = %d, want 409", resp.StatusCode)
	}

	resp, out := doJSON(t, "POST", base+"/publish", publishBody())
	if resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}

	// Double publish conflicts.
	if resp, _ := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != http.StatusConflict {
		t.Errorf("double publish = %d, want 409", resp.StatusCode)
	}

	// Worker requests tasks.
	resp, out = doJSON(t, "GET", base+"/request?worker=w1&k=2", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("request = %d", resp.StatusCode)
	}
	var batch []struct {
		ID          int      `json:"id"`
		Choices     []string `json:"choices"`
		GoldenTruth int      `json:"golden_truth"`
	}
	if err := json.Unmarshal(out["tasks"], &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 {
		t.Fatalf("requested 2 tasks, got %d", len(batch))
	}
	for _, b := range batch {
		if b.GoldenTruth != -1 {
			t.Error("golden truth leaked to worker")
		}
	}

	// Submit answers.
	for _, b := range batch {
		resp, out = doJSON(t, "POST", base+"/submit",
			map[string]any{"worker": "w1", "task": b.ID, "choice": 0})
		if resp.StatusCode != 200 {
			t.Fatalf("submit = %d: %s", resp.StatusCode, out["error"])
		}
	}
	// Duplicate answer rejected.
	resp, _ = doJSON(t, "POST", base+"/submit",
		map[string]any{"worker": "w1", "task": batch[0].ID, "choice": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate submit = %d, want 400", resp.StatusCode)
	}

	// Current result.
	resp, _ = doJSON(t, "GET", base+"/result?task=0", nil)
	if resp.StatusCode != 200 {
		t.Errorf("result = %d", resp.StatusCode)
	}

	// Worker profile and domains.
	resp, out = doJSON(t, "GET", base+"/worker?id=w1", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("worker = %d", resp.StatusCode)
	}
	var domains []string
	if err := json.Unmarshal(out["domains"], &domains); err != nil {
		t.Fatal(err)
	}
	if len(domains) != 26 {
		t.Errorf("domains = %d, want 26", len(domains))
	}

	// Final results.
	resp, out = doJSON(t, "GET", base+"/results", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("results = %d", resp.StatusCode)
	}
	var results []docs.Result
	if err := json.Unmarshal(out["results"], &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Errorf("results = %d tasks, want 3", len(results))
	}
}

func TestServerValidation(t *testing.T) {
	ts, srv := testServer(t)
	base := createCampaign(t, ts, "solo")
	if resp, _ := doJSON(t, "POST", base+"/publish", map[string]any{"tasks": []any{}}); resp.StatusCode != 400 {
		t.Errorf("empty publish = %d, want 400", resp.StatusCode)
	}
	req, _ := http.NewRequest("POST", base+"/publish", bytes.NewBufferString("{broken"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("broken JSON = %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", base+"/request", nil); resp.StatusCode != 400 {
		t.Errorf("missing worker = %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", base+"/result?task=abc", nil); resp.StatusCode != 400 {
		t.Errorf("bad task id = %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", base+"/worker", nil); resp.StatusCode != 400 {
		t.Errorf("missing worker id = %d, want 400", resp.StatusCode)
	}
	// An oversized /publish body (a valid publication padded past the cap,
	// lowered here from maxPublishBodyBytes) is refused and publishes
	// nothing; a correct publish afterwards succeeds.
	srv.maxPublishBody = 8 << 10
	padded := publishBody()
	padded["pad"] = strings.Repeat("x", 16<<10)
	if resp, _ := doJSON(t, "POST", base+"/publish", padded); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized publish = %d, want 413", resp.StatusCode)
	}
	var unpublished statsJSON
	mustGetJSON(t, base+"/stats", &unpublished)
	if unpublished.Published {
		t.Error("oversized publish took effect")
	}
	// An oversized /submit body (a valid answer padded past the cap) is
	// refused and applies nothing.
	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}
	huge := `{"worker":"w","task":0,"choice":0,"pad":"` + strings.Repeat("x", 2*maxSmallBodyBytes) + `"}`
	resp, err = http.Post(base+"/submit", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit = %d, want 413", resp.StatusCode)
	}
	// So is an oversized /submit-batch body: one answer padded past the
	// body budget of a full batch.
	hugeBatch := `{"pad":"` + strings.Repeat("x", srv.maxBatch*maxBatchItemBytes+8192) + `","answers":[{"worker":"w","task":0,"choice":0}]}`
	resp, err = http.Post(base+"/submit-batch", "application/json", strings.NewReader(hugeBatch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit-batch = %d, want 413", resp.StatusCode)
	}
	var st statsJSON
	mustGetJSON(t, base+"/stats", &st)
	if st.Answers != 0 {
		t.Errorf("oversized submit applied %d answers", st.Answers)
	}
	// Campaign-level validation.
	if resp, _ := doJSON(t, "GET", ts.URL+"/c/no-such/request?worker=w", nil); resp.StatusCode != 404 {
		t.Errorf("unknown campaign request = %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/campaigns", map[string]any{"name": "bad name"}); resp.StatusCode != 400 {
		t.Errorf("illegal campaign name = %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/c/%2e%2e/publish", publishBody()); resp.StatusCode != 400 {
		t.Errorf("publish to traversal name = %d, want 400", resp.StatusCode)
	}
	// Publishing to a name that differs from a hosted campaign only by case
	// is the conflict POST /campaigns reports, not an unknown campaign.
	resp, out := doJSON(t, "POST", ts.URL+"/c/SOLO/publish", publishBody())
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("case-colliding publish = %d, want 409", resp.StatusCode)
	}
	if msg := string(out["error"]); !strings.Contains(msg, "already exists") || !strings.Contains(msg, `collides with \"solo\"`) {
		t.Errorf("case-colliding publish error = %s", msg)
	}
	if list := srv.Registry().Campaigns(); len(list) != 1 || list[0].Name != "solo" {
		t.Errorf("after the case-colliding publish the listing is %+v, want exactly solo", list)
	}
}

// TestRejectedPublishLeavesNoCampaign: a publication Publish would reject —
// two tasks sharing an ID, a bad task, one too large for a log record —
// answers 400 before the campaign it names is
// created: nothing is listed, nothing is on disk, nothing counts toward the
// resident cap (so no serving campaign is evicted for it), and the corrected
// batch publishes to the same name.
func TestRejectedPublishLeavesNoCampaign(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, WALDir: dir, MaxLiveCampaigns: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if resp, out := doJSON(t, "POST", ts.URL+"/c/serving/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish serving = %d: %s", resp.StatusCode, out["error"])
	}
	before := srv.Registry().Stats()
	liveBefore, hibBefore := before.CampaignsLive, before.CampaignsHibernated

	duplicate := publishBody()
	duplicate["tasks"].([]map[string]any)[1]["id"] = 0
	oneChoice := publishBody()
	oneChoice["tasks"].([]map[string]any)[2]["choices"] = []string{"only"}
	truthOutOfRange := publishBody()
	truthOutOfRange["tasks"].([]map[string]any)[0]["golden_truth"] = 2
	negativeID := publishBody()
	negativeID["tasks"].([]map[string]any)[0]["id"] = -1
	// Five 4 MiB texts: a 21 MB body /publish admits, a publication no log
	// record holds.
	tooLarge := map[string]any{"tasks": []map[string]any{}}
	long := strings.Repeat("a very long task description ", (4<<20)/29)
	for id := 0; id < 5; id++ {
		tooLarge["tasks"] = append(tooLarge["tasks"].([]map[string]any),
			map[string]any{"id": id, "text": long, "choices": []string{"yes", "no"}, "golden_truth": -1})
	}
	for name, body := range map[string]map[string]any{"duplicate": duplicate, "one choice": oneChoice,
		"truth out of range": truthOutOfRange, "negative ID": negativeID, "too large": tooLarge} {
		resp, out := doJSON(t, "POST", ts.URL+"/c/bad/publish", body)
		if resp.StatusCode != 400 {
			t.Fatalf("%s publish = %d, want 400", name, resp.StatusCode)
		}
		if name == "duplicate" && !strings.Contains(string(out["error"]), "duplicate task ID 0") {
			t.Errorf("duplicate publish error = %s", out["error"])
		}
		for _, c := range srv.Registry().Campaigns() {
			if c.Name == "bad" {
				t.Fatalf("after the rejected %s publish the campaign is listed: %+v", name, c)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "campaigns", "bad")); !os.IsNotExist(err) {
			t.Fatalf("after the rejected %s publish the campaign directory exists (stat: %v)", name, err)
		}
		if st := srv.Registry().Stats(); st.CampaignsLive != liveBefore || st.CampaignsHibernated != hibBefore {
			t.Fatalf("after the rejected %s publish: %d resident, %d hibernated, want %d and %d", name, st.CampaignsLive, st.CampaignsHibernated, liveBefore, hibBefore)
		}
		if !srv.Registry().CampaignResident("serving") {
			t.Fatalf("the rejected %s publish evicted the serving campaign", name)
		}
	}

	if resp, out := doJSON(t, "POST", ts.URL+"/c/bad/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("corrected publish = %d: %s", resp.StatusCode, out["error"])
	}
	if _, err := os.Stat(filepath.Join(dir, "campaigns", "bad")); err != nil {
		t.Errorf("the corrected publish left no campaign directory: %v", err)
	}
}

// TestCreateFailureIsServerError: a campaign whose namespace cannot be made
// durable is the server's failure, not the request's — POST /campaigns and
// a first publish both answer 500 — and it leaves no campaign behind,
// listed or on disk.
func TestCreateFailureIsServerError(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, WALDir: dir}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for name, call := range map[string]func() *http.Response{
		"create": func() *http.Response {
			resp, _ := doJSON(t, "POST", ts.URL+"/campaigns", map[string]string{"name": "ghost"})
			return resp
		},
		"publish": func() *http.Response {
			resp, _ := doJSON(t, "POST", ts.URL+"/c/ghost/publish", publishBody())
			return resp
		},
	} {
		wal.FailFsyncAt(1)
		resp := call()
		wal.FailFsyncAt(0)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s over a failed fsync = %d, want 500", name, resp.StatusCode)
		}
		if list := srv.Registry().Campaigns(); len(list) != 0 {
			t.Fatalf("%s: a failed create listed %+v", name, list)
		}
		if _, err := os.Stat(filepath.Join(dir, "campaigns", "ghost")); !os.IsNotExist(err) {
			t.Fatalf("%s: a failed create left its directory (stat: %v)", name, err)
		}
	}
	if resp, out := doJSON(t, "POST", ts.URL+"/c/ghost/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish once the disk recovers = %d: %s", resp.StatusCode, out["error"])
	}
}

func TestServerStats(t *testing.T) {
	ts, _ := testServer(t)
	base := createCampaign(t, ts, "solo")

	resp, out := doJSON(t, "GET", base+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var published bool
	if err := json.Unmarshal(out["published"], &published); err != nil {
		t.Fatal(err)
	}
	if published {
		t.Error("stats reports published before publish")
	}

	if resp, _ := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d", resp.StatusCode)
	}
	for _, w := range []string{"s1", "s2"} {
		for task := 0; task < 3; task++ {
			resp, out := doJSON(t, "POST", base+"/submit",
				map[string]any{"worker": w, "task": task, "choice": 0})
			if resp.StatusCode != 200 {
				t.Fatalf("submit = %d: %s", resp.StatusCode, out["error"])
			}
		}
	}

	resp, out = doJSON(t, "GET", base+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var answers int64
	if err := json.Unmarshal(out["answers"], &answers); err != nil {
		t.Fatal(err)
	}
	if answers != 6 {
		t.Errorf("stats answers = %d, want 6", answers)
	}
	var epoch uint64
	if err := json.Unmarshal(out["snapshot_epoch"], &epoch); err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Error("snapshot epoch did not advance")
	}
	if err := json.Unmarshal(out["published"], &published); err != nil {
		t.Fatal(err)
	}
	if !published {
		t.Error("stats reports unpublished after publish")
	}
	var name string
	if err := json.Unmarshal(out["campaign"], &name); err != nil {
		t.Fatal(err)
	}
	if name != "solo" {
		t.Errorf("/stats reports campaign %q, want %q", name, "solo")
	}
}

// TestStatsSharesPublishSourceOfTruth is the regression test for the
// cached-published-flag bug: the server used to mirror "published" into an
// atomic bool, so a publish that took effect in the core without the
// server's involvement (WAL recovery restore, or a publish whose HTTP
// acknowledgment failed mid-way) left /stats reporting published=false
// while /request served tasks. Now every reader asks the serving core, so
// a publish applied behind the handlers' backs must be visible to /stats
// and /request alike, immediately.
func TestStatsSharesPublishSourceOfTruth(t *testing.T) {
	ts, srv := testServer(t)
	base := createCampaign(t, ts, "solo")

	// Publish through the registry handle directly — the handlers never
	// see it, exactly like a recovery restore or a half-acknowledged
	// publish.
	sys, err := srv.reg.Campaign("solo")
	if err != nil {
		t.Fatal(err)
	}
	var tasks []docs.Task
	raw := publishBody()["tasks"].([]map[string]any)
	for _, m := range raw {
		tasks = append(tasks, docs.Task{
			ID: m["id"].(int), Text: m["text"].(string),
			Choices: m["choices"].([]string), GoldenTruth: m["golden_truth"].(int),
		})
	}
	if err := sys.Publish(tasks); err != nil {
		t.Fatal(err)
	}

	resp, out := doJSON(t, "GET", base+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var published bool
	if err := json.Unmarshal(out["published"], &published); err != nil {
		t.Fatal(err)
	}
	if !published {
		t.Fatal("/stats reports published=false for a campaign the core has published")
	}
	if resp, _ := doJSON(t, "GET", base+"/request?worker=w1&k=1", nil); resp.StatusCode != 200 {
		t.Fatalf("request = %d; /stats and /request disagree on published", resp.StatusCode)
	}
	// And a second publish over HTTP conflicts — same source of truth.
	if resp, _ := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != http.StatusConflict {
		t.Fatalf("publish over core-published campaign = %d, want 409", resp.StatusCode)
	}
}

// TestServerMultiCampaign exercises the namespaced routes end to end: two
// campaigns publish different task sets, serve different workers, report
// separate stats, and archive independently.
func TestServerMultiCampaign(t *testing.T) {
	// Durable, so the listing can be checked against a hibernated campaign.
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, WALDir: t.TempDir()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Publishing to a fresh name creates the campaign.
	resp, out := doJSON(t, "POST", ts.URL+"/c/photos/publish", publishBody())
	if resp.StatusCode != 200 {
		t.Fatalf("publish photos = %d: %s", resp.StatusCode, out["error"])
	}
	// Explicit create, then publish.
	if resp, _ := doJSON(t, "POST", ts.URL+"/campaigns", map[string]any{"name": "ner"}); resp.StatusCode != 200 {
		t.Fatalf("create ner = %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/campaigns", map[string]any{"name": "ner"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create = %d, want 409", resp.StatusCode)
	}
	if resp, out := doJSON(t, "POST", ts.URL+"/c/ner/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish ner = %d: %s", resp.StatusCode, out["error"])
	}

	// The campaigns are isolated: answers land in their own campaign.
	for i, name := range []string{"photos", "ner"} {
		resp, out := doJSON(t, "GET", ts.URL+"/c/"+name+"/request?worker=w&k=2", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("request %s = %d", name, resp.StatusCode)
		}
		var rout struct {
			Tasks []struct {
				ID int `json:"id"`
			} `json:"tasks"`
		}
		raw, _ := json.Marshal(out)
		if err := json.Unmarshal(raw, &rout); err != nil {
			t.Fatal(err)
		}
		for j, tk := range rout.Tasks {
			if j > i {
				break // different per-campaign answer counts
			}
			if resp, out := doJSON(t, "POST", ts.URL+"/c/"+name+"/submit",
				map[string]any{"worker": "w", "task": tk.ID, "choice": 0}); resp.StatusCode != 200 {
				t.Fatalf("submit %s = %d: %s", name, resp.StatusCode, out["error"])
			}
		}
	}
	for i, name := range []string{"photos", "ner"} {
		resp, out := doJSON(t, "GET", ts.URL+"/c/"+name+"/stats", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("stats %s = %d", name, resp.StatusCode)
		}
		var answers int64
		if err := json.Unmarshal(out["answers"], &answers); err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 1); answers != want {
			t.Errorf("campaign %s has %d answers, want %d", name, answers, want)
		}
	}

	// The listing shows both, separately published.
	listing := func() map[string]docs.CampaignInfo {
		t.Helper()
		resp, out := doJSON(t, "GET", ts.URL+"/campaigns", nil)
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
		return byName
	}
	byName := listing()
	if len(byName) != 2 {
		t.Fatalf("campaigns = %+v, want ner, photos", byName)
	}
	if !byName["photos"].Published || !byName["ner"].Published {
		t.Error("named campaigns not reported published")
	}
	if byName["ner"].Hibernated || byName["ner"].Wakes != 0 {
		t.Errorf("resident campaign listed as %+v", byName["ner"])
	}

	// The listing is the one endpoint that describes a campaign without
	// waking it: a hibernated campaign says so, keeps its counters, and is
	// still hibernated after the call. The next request wakes it and the
	// listing counts the wake.
	if err := srv.Registry().Hibernate("ner"); err != nil {
		t.Fatal(err)
	}
	if c := listing()["ner"]; !c.Hibernated || !c.Published || c.Answers != 2 || c.Wakes != 0 {
		t.Errorf("hibernated campaign listed as %+v", c)
	}
	if srv.Registry().CampaignResident("ner") {
		t.Error("GET /campaigns woke a hibernated campaign")
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/c/ner/stats", nil); resp.StatusCode != 200 {
		t.Fatalf("stats ner = %d", resp.StatusCode)
	}
	if c := listing()["ner"]; c.Hibernated || c.Wakes != 1 {
		t.Errorf("woken campaign listed as %+v", c)
	}

	// Archive photos: gone for serving, still listed, ner unaffected.
	if resp, _ := doJSON(t, "POST", ts.URL+"/c/photos/archive", nil); resp.StatusCode != 200 {
		t.Fatalf("archive = %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/c/photos/request?worker=w2&k=1", nil); resp.StatusCode != http.StatusGone {
		t.Errorf("request archived = %d, want 410", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/c/photos/archive", nil); resp.StatusCode != http.StatusGone {
		t.Errorf("double archive = %d, want 410", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/c/ner/request?worker=w2&k=1", nil); resp.StatusCode != 200 {
		t.Errorf("ner after photos archive = %d, want 200", resp.StatusCode)
	}
	if !listing()["photos"].Archived {
		t.Error("archived campaign not flagged in the listing")
	}
}

// TestServerConcurrentTraffic hammers the handlers from many goroutines
// across two campaigns; with -race it verifies the lock-free server plus
// the concurrent cores end to end over real HTTP.
func TestServerConcurrentTraffic(t *testing.T) {
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, AnswersPerTask: 4, RerunEvery: 10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(hts.Close)

	tasks := make([]map[string]any, 40)
	for i := range tasks {
		tasks[i] = map[string]any{
			"id": i, "text": fmt.Sprintf("is %d even or odd", i),
			"choices": []string{"even", "odd"}, "golden_truth": -1,
		}
	}
	campaigns := []string{"first", "other"}
	for _, name := range campaigns {
		if resp, out := doJSON(t, "POST", hts.URL+"/c/"+name+"/publish", map[string]any{"tasks": tasks}); resp.StatusCode != 200 {
			t.Fatalf("publish %s = %d: %s", name, resp.StatusCode, out["error"])
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			base := hts.URL + "/c/" + campaigns[g%2]
			for i := 0; i < 6; i++ {
				w := fmt.Sprintf("cw%d-%d", g, i)
				resp, err := client.Get(base + "/request?worker=" + w + "&k=3")
				if err != nil {
					errs <- err
					return
				}
				var rout struct {
					Tasks []struct {
						ID int `json:"id"`
					} `json:"tasks"`
				}
				err = json.NewDecoder(resp.Body).Decode(&rout)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				for _, tk := range rout.Tasks {
					var buf bytes.Buffer
					if err := json.NewEncoder(&buf).Encode(map[string]any{"worker": w, "task": tk.ID, "choice": tk.ID % 2}); err != nil {
						errs <- err
						return
					}
					sresp, err := client.Post(base+"/submit", "application/json", &buf)
					if err != nil {
						errs <- err
						return
					}
					sresp.Body.Close()
					rresp, err := client.Get(fmt.Sprintf("%s/result?task=%d", base, tk.ID))
					if err != nil {
						errs <- err
						return
					}
					rresp.Body.Close()
				}
				stresp, err := client.Get(base + "/stats")
				if err != nil {
					errs <- err
					return
				}
				stresp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, name := range campaigns {
		resp, out := doJSON(t, "GET", hts.URL+"/c/"+name+"/results", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("results %s = %d: %s", name, resp.StatusCode, out["error"])
		}
		var results []docs.Result
		if err := json.Unmarshal(out["results"], &results); err != nil {
			t.Fatal(err)
		}
		if len(results) != 40 {
			t.Errorf("results %s = %d tasks, want 40", name, len(results))
		}
	}
}

// TestCapOneNoServerError serves two campaigns through the handlers under a
// resident cap of one, so requests keep waking one campaign while the
// other has calls in flight. Eviction fails no request: no response is a
// 500, and after a restart each campaign holds exactly the answers it
// acknowledged.
func TestCapOneNoServerError(t *testing.T) {
	for _, clients := range []int{2, 8} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			cfg := docs.Config{GoldenCount: -1, HITSize: 3, AnswersPerTask: 4, WALDir: t.TempDir(), MaxLiveCampaigns: 1}
			srv, err := New(cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			hts := httptest.NewServer(srv.Handler())
			tasks := make([]map[string]any, 30)
			for i := range tasks {
				tasks[i] = map[string]any{"id": i, "text": fmt.Sprintf("is %d even or odd", i),
					"choices": []string{"even", "odd"}, "golden_truth": -1}
			}
			campaigns := []string{"left", "right"}
			for _, name := range campaigns {
				if resp, out := doJSON(t, "POST", hts.URL+"/c/"+name+"/publish", map[string]any{"tasks": tasks}); resp.StatusCode != 200 {
					t.Fatalf("publish %s = %d: %s", name, resp.StatusCode, out["error"])
				}
			}

			var (
				wg    sync.WaitGroup
				mu    sync.Mutex
				acked = map[string]int64{}
			)
			errs := make(chan error, clients)
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					name := campaigns[g%2]
					base := hts.URL + "/c/" + name
					call := func(resp *http.Response, err error) (*http.Response, error) {
						if err == nil && resp.StatusCode >= 500 {
							resp.Body.Close()
							err = fmt.Errorf("%s %s = %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode)
						}
						return resp, err
					}
					for i := 0; i < 6; i++ {
						w := fmt.Sprintf("cw%d-%d", g, i)
						resp, err := call(http.Get(base + "/request?worker=" + w + "&k=3"))
						if err != nil {
							errs <- err
							return
						}
						var rout struct {
							Tasks []struct {
								ID int `json:"id"`
							} `json:"tasks"`
						}
						err = json.NewDecoder(resp.Body).Decode(&rout)
						resp.Body.Close()
						if err != nil {
							errs <- err
							return
						}
						for _, tk := range rout.Tasks {
							body := fmt.Sprintf(`{"worker":%q,"task":%d,"choice":%d}`, w, tk.ID, tk.ID%2)
							resp, err := call(http.Post(base+"/submit", "application/json", strings.NewReader(body)))
							if err != nil {
								errs <- err
								return
							}
							resp.Body.Close()
							if resp.StatusCode == http.StatusOK {
								mu.Lock()
								acked[name]++
								mu.Unlock()
							}
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			hts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if t.Failed() {
				return
			}

			srv2, err := New(cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv2.Close() })
			ts2 := httptest.NewServer(srv2.Handler())
			t.Cleanup(ts2.Close)
			for _, name := range campaigns {
				resp, out := doJSON(t, "GET", ts2.URL+"/c/"+name+"/stats", nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("stats %s = %d", name, resp.StatusCode)
				}
				var answers int64
				if err := json.Unmarshal(out["answers"], &answers); err != nil {
					t.Fatal(err)
				}
				if acked[name] == 0 || answers != acked[name] {
					t.Errorf("%s: %d answers after restart, %d acknowledged", name, answers, acked[name])
				}
			}
		})
	}
}

// TestLeasedRequestsOverHTTP drives the -lease-ttl serving mode end to
// end: a worker re-requesting before submitting gets disjoint tasks, the
// pool drains to empty, and /stats exposes the candidate-index and lease
// gauges (open_tasks, index_epoch, leases_active).
func TestLeasedRequestsOverHTTP(t *testing.T) {
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 2, LeaseTTL: time.Minute}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	base := ts.URL + "/c/leased"

	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}

	requestIDs := func() map[int]bool {
		t.Helper()
		resp, out := doJSON(t, "GET", base+"/request?worker=w&k=2", nil)
		if resp.StatusCode != 200 {
			t.Fatalf("request = %d: %s", resp.StatusCode, out["error"])
		}
		var tasks []struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(out["tasks"], &tasks); err != nil {
			t.Fatal(err)
		}
		ids := make(map[int]bool, len(tasks))
		for _, tk := range tasks {
			ids[tk.ID] = true
		}
		return ids
	}

	first := requestIDs()
	if len(first) != 2 {
		t.Fatalf("first request returned %d tasks, want 2", len(first))
	}
	second := requestIDs()
	if len(second) != 1 {
		t.Fatalf("second request returned %d tasks, want the 1 unleased task", len(second))
	}
	for id := range second {
		if first[id] {
			t.Fatalf("second request re-assigned leased task %d", id)
		}
	}
	if third := requestIDs(); len(third) != 0 {
		t.Fatalf("third request returned %d tasks from a fully leased pool", len(third))
	}

	resp, out := doJSON(t, "GET", base+"/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	intField := func(key string) int64 {
		t.Helper()
		var v int64
		if err := json.Unmarshal(out[key], &v); err != nil {
			t.Fatalf("stats %s: %v", key, err)
		}
		return v
	}
	if got := intField("open_tasks"); got != 3 {
		t.Fatalf("open_tasks = %d, want 3 (leases do not close tasks)", got)
	}
	if got := intField("leases_active"); got != 3 {
		t.Fatalf("leases_active = %d, want 3", got)
	}
	if got := intField("index_epoch"); got < 1 {
		t.Fatalf("index_epoch = %d, want >= 1", got)
	}
}

// TestStatsHibernation pins the /stats census split and the wake contract:
// a /stats request to a hibernated campaign wakes it and serves normally,
// and campaigns_live / campaigns_hibernated / wakes_total track the
// lifecycle.
func TestStatsHibernation(t *testing.T) {
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, WALDir: t.TempDir()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	nap, awake := createCampaign(t, ts, "nap"), createCampaign(t, ts, "awake")
	census := func(url string) (live, hibernated, wakes int64) {
		t.Helper()
		resp, out := doJSON(t, "GET", url+"/stats", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/stats: status %d (the wake contract says any request wakes)", url, resp.StatusCode)
		}
		for key, dst := range map[string]*int64{"campaigns_live": &live, "campaigns_hibernated": &hibernated, "wakes_total": &wakes} {
			if err := json.Unmarshal(out[key], dst); err != nil {
				t.Fatalf("stats %s: %v", key, err)
			}
		}
		return live, hibernated, wakes
	}
	// Both resident, none hibernated, no wakes yet.
	if live, hib, wakes := census(nap); live != 2 || hib != 0 || wakes != 0 {
		t.Fatalf("fresh census = %d live, %d hibernated, %d wakes, want 2/0/0", live, hib, wakes)
	}

	if err := srv.Registry().Hibernate("nap"); err != nil {
		t.Fatal(err)
	}
	// Another campaign's /stats reports the hibernation and wakes nothing.
	if live, hib, wakes := census(awake); live != 1 || hib != 1 || wakes != 0 {
		t.Fatalf("census after hibernate = %d live, %d hibernated, %d wakes, want 1/1/0", live, hib, wakes)
	}
	// A campaign-addressed request wakes it: /stats serves 200 and the
	// census plus wake counters move.
	if live, hib, wakes := census(nap); live != 2 || hib != 0 || wakes != 1 {
		t.Fatalf("census after wake = %d live, %d hibernated, %d wakes, want 2/0/1", live, hib, wakes)
	}
}

// TestNoPhantomCampaign: the server hosts what requesters created and
// nothing else. It used to create a campaign named "default" at every boot
// to back root-path aliases of the campaign endpoints; under a resident cap
// that campaign took a slot, and a health-checker's GET /stats woke it and
// hibernated a published, serving campaign to make room.
func TestNoPhantomCampaign(t *testing.T) {
	dir := t.TempDir()
	cfg := docs.Config{GoldenCount: -1, HITSize: 3, WALDir: dir, MaxLiveCampaigns: 2}
	srv, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	if list := srv.Registry().Campaigns(); len(list) != 0 {
		t.Fatalf("a fresh server lists %+v, want no campaign", list)
	}
	if _, out := doJSON(t, "GET", ts.URL+"/campaigns", nil); string(out["campaigns"]) != "[]" {
		t.Fatalf("fresh GET /campaigns lists %s, want []", out["campaigns"])
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "campaigns")); err == nil && len(entries) != 0 {
		t.Fatalf("a fresh server wrote %d entries under campaigns/", len(entries))
	}

	for _, name := range []string{"a", "b"} {
		if resp, out := doJSON(t, "POST", ts.URL+"/c/"+name+"/publish", publishBody()); resp.StatusCode != 200 {
			t.Fatalf("publish %s = %d: %s", name, resp.StatusCode, out["error"])
		}
	}
	assertServing := func(when string) {
		t.Helper()
		list := srv.Registry().Campaigns()
		if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
			t.Fatalf("%s: listing = %+v, want exactly a and b", when, list)
		}
		for _, c := range list {
			if c.Hibernated || !srv.Registry().CampaignResident(c.Name) {
				t.Fatalf("%s: campaign %s is not resident: %+v", when, c.Name, c)
			}
		}
		if wakes := srv.Registry().Stats().WakesTotal; wakes != 0 {
			t.Fatalf("%s: wakes_total = %d, want 0", when, wakes)
		}
	}
	assertServing("after publishing a and b")

	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/stats", ""},
		{"GET", "/request?worker=w", ""},
		{"POST", "/publish", `{"tasks":[{"id":0,"text":"a or b","choices":["a","b"],"golden_truth":-1}]}`},
		{"POST", "/submit", `{"worker":"w","task":0,"choice":0}`},
	} {
		req, err := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(probe.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
		assertServing("after " + probe.method + " " + probe.path)
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := docs.OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if list := reopened.Campaigns(); len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("reopened listing = %+v, want exactly a and b", list)
	}
}

// TestStatusFor pins the status each serving error answers: a call its
// campaign stopped under twice is a 503 a client may retry, not a 400.
func TestStatusFor(t *testing.T) {
	for err, want := range map[error]int{
		fmt.Errorf("submit: %w", docs.ErrDurability):       http.StatusInternalServerError,
		fmt.Errorf("submit: %w", docs.ErrStopped):          http.StatusServiceUnavailable,
		fmt.Errorf("submit: %w", docs.ErrCampaignArchived): http.StatusGone,
		fmt.Errorf("core: unknown task 7"):                 http.StatusBadRequest,
	} {
		if got := statusFor(err); got != want {
			t.Errorf("statusFor(%v) = %d, want %d", err, got, want)
		}
	}
}
