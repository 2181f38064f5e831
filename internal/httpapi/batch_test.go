package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"docs"
	"docs/internal/wal"
)

// postBatch posts a body to /submit-batch and decodes the typed batch
// response (in-package, so the unexported response type is available).
func postBatch(t *testing.T, url, contentType string, body []byte) (*http.Response, batchResponse) {
	t.Helper()
	resp, err := http.Post(url+"/submit-batch", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding batch response %q: %v", raw, err)
		}
	}
	return resp, out
}

func jsonBatch(t *testing.T, answers []batchAnswerJSON) []byte {
	t.Helper()
	blob, err := json.Marshal(batchRequest{Answers: answers})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestBatchSubmitJSON drives two batches through the endpoint and checks
// the per-item statuses plus the /stats counters.
func TestBatchSubmitJSON(t *testing.T) {
	ts, _ := testServer(t)
	base := ts.URL + "/c/solo"
	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}

	for _, w := range []string{"wa", "wb"} {
		resp, out := postBatch(t, base, "application/json", jsonBatch(t, []batchAnswerJSON{
			{Worker: w, Task: 0, Choice: 0}, {Worker: w, Task: 1, Choice: 1}, {Worker: w, Task: 2, Choice: 0},
		}))
		if resp.StatusCode != 200 {
			t.Fatalf("%s batch = %d", w, resp.StatusCode)
		}
		if out.Accepted != 3 || out.Rejected != 0 || len(out.Statuses) != 3 {
			t.Fatalf("%s batch response = %+v", w, out)
		}
		if out.Campaign != "solo" {
			t.Fatalf("batch campaign = %q", out.Campaign)
		}
	}

	// Both batches (and all six answers) show up in the campaign's stats.
	var st statsJSON
	mustGetJSON(t, base+"/stats", &st)
	if st.Answers != 6 {
		t.Fatalf("answers = %d, want 6", st.Answers)
	}
	if st.BatchesTotal != 2 || st.BatchAnswersTotal != 6 || st.BatchAnswersMean != 3 {
		t.Fatalf("batch stats = %d/%d/%.1f, want 2/6/3.0",
			st.BatchesTotal, st.BatchAnswersTotal, st.BatchAnswersMean)
	}
}

// TestBatchSubmitEmptyAndMalformed: a body with no decodable items is the
// one case the per-item contract does not cover — it must 400.
func TestBatchSubmitEmptyAndMalformed(t *testing.T) {
	ts, _ := testServer(t)
	base := ts.URL + "/c/solo"
	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}
	cases := []struct {
		name, contentType string
		body              []byte
	}{
		{"empty json answers", "application/json", []byte(`{"answers":[]}`)},
		{"missing answers key", "application/json", []byte(`{}`)},
		{"invalid json", "application/json", []byte(`{"answers":`)},
		// The retired binary framing gets no branch of its own: its content
		// type is decoded like any other body — as JSON.
		{"retired binary framing", "application/x-docs-batch",
			// A format v1 answer record: kind, seq 1, worker "w", task 0, choice 0.
			wal.EncodeFrame([]byte("DBB1"), []byte{byte(wal.KindAnswer), 1, 1, 'w', 0, 0})},
	}
	for _, tc := range cases {
		resp, _ := postBatch(t, base, tc.contentType, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	var st statsJSON
	mustGetJSON(t, base+"/stats", &st)
	if st.Answers != 0 || st.BatchesTotal != 0 {
		t.Errorf("rejected bodies applied %d answers in %d batches", st.Answers, st.BatchesTotal)
	}

	// Unpublished campaign: a decodable batch still gets the 409 the
	// single-submit path answers.
	resp, _ := postBatch(t, ts.URL+"/c/ghostless", "application/json",
		jsonBatch(t, []batchAnswerJSON{{Worker: "w", Task: 0, Choice: 0}}))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign batch = %d, want 404", resp.StatusCode)
	}
}

// TestBatchSubmitClamp pins the DoS guard: a batch longer than -max-batch
// is truncated to the clamp — mirroring ?k= — with the overflow rejected
// per-item.
func TestBatchSubmitClamp(t *testing.T) {
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3}, Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	base := ts.URL + "/c/solo"
	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}

	answers := make([]batchAnswerJSON, 10)
	for i := range answers {
		answers[i] = batchAnswerJSON{Worker: fmt.Sprintf("w%d", i), Task: i % 3, Choice: 0}
	}
	resp, out := postBatch(t, base, "application/json", jsonBatch(t, answers))
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Accepted != 4 || out.Rejected != 6 || len(out.Statuses) != 10 {
		t.Fatalf("accepted/rejected/statuses = %d/%d/%d, want 4/6/10",
			out.Accepted, out.Rejected, len(out.Statuses))
	}
	for i, st := range out.Statuses {
		if i < 4 && !st.OK {
			t.Fatalf("item %d rejected: %s", i, st.Error)
		}
		if i >= 4 && (st.OK || !strings.Contains(st.Error, "clamped to 4")) {
			t.Fatalf("item %d = %+v, want clamp rejection", i, st)
		}
	}
	var st statsJSON
	mustGetJSON(t, base+"/stats", &st)
	if st.BatchAnswersTotal != 4 {
		t.Fatalf("batch_answers_total = %d, want 4 (one batch clamped to 4)", st.BatchAnswersTotal)
	}
}

// TestBatchSubmitMixedValidity: invalid items are rejected in place with
// a reason while their neighbours commit — and the accepted subset is
// durable: a restart recovers exactly those answers (with the batch
// counters rebuilt from the logged group).
func TestBatchSubmitMixedValidity(t *testing.T) {
	dir := t.TempDir()
	cfg := docs.Config{GoldenCount: -1, HITSize: 3, WALDir: dir}
	srv, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	base := ts.URL + "/c/solo"
	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}

	resp, out := postBatch(t, base, "application/json", jsonBatch(t, []batchAnswerJSON{
		{Worker: "w1", Task: 0, Choice: 0},
		{Worker: "w1", Task: 99, Choice: 0}, // unknown task
		{Worker: "w1", Task: 1, Choice: 1},
		{Worker: "", Task: 2, Choice: 0},   // empty worker
		{Worker: "w1", Task: 2, Choice: 9}, // choice out of range
		{Worker: "w1", Task: 2, Choice: 1},
	}))
	if resp.StatusCode != 200 {
		t.Fatalf("mixed batch = %d", resp.StatusCode)
	}
	wantOK := []bool{true, false, true, false, false, true}
	if len(out.Statuses) != len(wantOK) {
		t.Fatalf("%d statuses, want %d", len(out.Statuses), len(wantOK))
	}
	for i, st := range out.Statuses {
		if st.OK != wantOK[i] {
			t.Fatalf("item %d: ok=%v (%s), want ok=%v", i, st.OK, st.Error, wantOK[i])
		}
		if !st.OK && st.Error == "" {
			t.Fatalf("item %d rejected without a reason", i)
		}
	}
	if out.Accepted != 3 || out.Rejected != 3 {
		t.Fatalf("accepted/rejected = %d/%d, want 3/3", out.Accepted, out.Rejected)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: exactly the accepted subset was in the WAL group.
	srv2, err := New(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	var st statsJSON
	mustGetJSON(t, ts2.URL+"/c/solo/stats", &st)
	if st.Answers != 3 {
		t.Fatalf("recovered answers = %d, want 3", st.Answers)
	}
	if st.BatchesTotal != 1 || st.BatchAnswersTotal != 3 {
		t.Fatalf("recovered batch counters = %d/%d, want 1/3", st.BatchesTotal, st.BatchAnswersTotal)
	}
}

// TestSingleSubmitUnchanged pins the single-submit protocol byte for byte:
// the response body must be exactly what it was before the batch endpoint
// existed, and single-submit traffic must leave every batch counter at
// zero.
func TestSingleSubmitUnchanged(t *testing.T) {
	ts, _ := testServer(t)
	base := ts.URL + "/c/solo"
	if resp, out := doJSON(t, "POST", base+"/publish", publishBody()); resp.StatusCode != 200 {
		t.Fatalf("publish = %d: %s", resp.StatusCode, out["error"])
	}
	resp, err := http.Post(base+"/submit", "application/json",
		strings.NewReader(`{"worker":"w1","task":0,"choice":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if want := "{\"status\":\"accepted\"}\n"; string(body) != want {
		t.Fatalf("submit response = %q, want %q (byte-identical)", body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("submit content-type = %q", ct)
	}
	var st statsJSON
	mustGetJSON(t, base+"/stats", &st)
	if st.Answers != 1 {
		t.Fatalf("answers = %d, want 1", st.Answers)
	}
	if st.BatchesTotal != 0 || st.BatchAnswersTotal != 0 || st.BatchAnswersMean != 0 {
		t.Fatalf("single-submit traffic moved batch counters: %d/%d/%.1f",
			st.BatchesTotal, st.BatchAnswersTotal, st.BatchAnswersMean)
	}
}

func mustGetJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
