package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"docs"
	"docs/internal/dataset"
)

// publishOracle is what json.Unmarshal makes of a /publish body, and
// asPublishRequest the scanner's tasks in the same shape — nil stays nil,
// [] stays empty — so the two compare with reflect.DeepEqual.
func publishOracle(body []byte) (publishRequest, error) {
	var req publishRequest
	return req, json.Unmarshal(body, &req)
}

func asPublishRequest(tasks []docs.Task) publishRequest {
	var req publishRequest
	if tasks != nil {
		req.Tasks = make([]taskJSON, len(tasks))
	}
	for i, t := range tasks {
		req.Tasks[i] = taskJSON(t)
	}
	return req
}

// checkPublishBody fails t unless a body the scanner accepts decodes to
// exactly what json.Unmarshal makes of it.
func checkPublishBody(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	tasks, ok := scanPublish(string(body))
	if !ok {
		return false
	}
	want, err := publishOracle(body)
	if err != nil {
		t.Fatalf("scanner accepted %q, which json.Unmarshal refuses: %v", body, err)
	}
	if got := asPublishRequest(tasks); !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nscanner      %#v\njson.Unmarshal %#v", body, got, want)
	}
	for _, task := range tasks {
		// The choice lists share a slab: an append to one must not
		// overwrite the next task's strings.
		if cap(task.Choices) != len(task.Choices) {
			t.Fatalf("task %d's choices have spare capacity", task.ID)
		}
	}
	return true
}

// FuzzPublishBodyMatchesJSON: whenever the scanner accepts a /publish
// body, json.Unmarshal accepts it too and decodes the same tasks — []
// against null choices included. The checked-in corpus
// (testdata/fuzz/FuzzPublishBodyMatchesJSON) holds the edges of the
// canonical subset: HTML-escaped <>& and U+2028, surrogate pairs and lone
// halves, invalid UTF-8 and control bytes, -0, 01, 1.0, 1e2 and int
// overflow, "ID" and "Choices", duplicate and unknown keys, null at every
// level, trailing whitespace against trailing data.
func FuzzPublishBodyMatchesJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkPublishBody(t, body) })
}

// TestScannerSubset runs the fuzzer's checked-in seeds through the scanner:
// the seeds named here are inside the canonical subset and must be taken,
// every other seed is outside it and must be deferred — so a scanner that
// deferred everything would not pass the differential fuzzer unnoticed.
func TestScannerSubset(t *testing.T) {
	taken := map[string]bool{
		"seed_canonical": true, "seed_html_escaped": true, "seed_u2028": true, "seed_utf8_raw": true,
		"seed_surrogate_pair": true, "seed_all_escapes": true, "seed_literal_fffd": true, "seed_del_byte": true,
		"seed_id_neg_zero": true, "seed_id_int_max": true, "seed_id_int_min": true,
		"seed_key_order": true, "seed_empty_choices": true, "seed_absent_fields": true, "seed_empty_tasks": true,
		"seed_whitespace": true, "seed_trailing_whitespace": true,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzPublishBodyMatchesJSON")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, found := strings.CutPrefix(strings.Split(string(src), "\n")[1], "[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !found || err != nil {
			t.Fatalf("%s: not a []byte corpus entry (%v)", e.Name(), err)
		}
		if _, got := scanPublish(body); got != taken[e.Name()] {
			t.Errorf("%s: scanner takes it = %v, want %v", e.Name(), got, taken[e.Name()])
		}
	}
}

// datasetTasks returns n tasks drawn round-robin from the paper's four
// datasets as a publication: every third one carries its golden truth, the
// rest golden_truth -1.
func datasetTasks(t testing.TB, n int) []taskJSON {
	var out []taskJSON
	for round := uint64(0); len(out) < n; round++ {
		for _, name := range []string{"4D", "Item", "QA", "SFV"} {
			ds, err := dataset.ByName(name, 20160412+round)
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range ds.Tasks {
				if len(out) == n {
					return out
				}
				tj := taskJSON{ID: len(out), Text: task.Text, Choices: task.Choices, GoldenTruth: docs.NoTruth}
				if len(out)%3 == 0 {
					tj.GoldenTruth = task.Truth
				}
				out = append(out, tj)
			}
		}
	}
	return out
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCanonicalBodiesTakeScanner: what json.Marshal writes for the four
// datasets' publications is never deferred to json.Unmarshal, so the
// scanner decodes the traffic actually served.
func TestCanonicalBodiesTakeScanner(t *testing.T) {
	for _, name := range dataset.Names() {
		ds, err := dataset.ByName(name, 4242)
		if err != nil {
			t.Fatal(err)
		}
		for _, golden := range []bool{false, true} {
			var req publishRequest
			for i, task := range ds.Tasks {
				tj := taskJSON{ID: i, Text: task.Text, Choices: task.Choices, GoldenTruth: docs.NoTruth}
				if golden {
					tj.GoldenTruth = task.Truth
				}
				req.Tasks = append(req.Tasks, tj)
			}
			// Both a typed request and the map a client builds by hand.
			for _, v := range []any{req, map[string]any{"tasks": req.Tasks}} {
				if body := mustMarshal(t, v); !checkPublishBody(t, body) {
					t.Errorf("%s publication (golden %v, %d B) deferred to encoding/json", name, golden, len(body))
				}
			}
		}
	}
}

// TestAllocsPublishDecode pins what decoding a canonical publication costs
// in allocations: a fixed handful a body — the body as a string, the
// presized tasks and choice slab, a string for each escaped one — however
// many tasks it holds, where json.Unmarshal makes five a task.
func TestAllocsPublishDecode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const most = 16
	for _, n := range []int{600, 6000} {
		body := mustMarshal(t, publishRequest{Tasks: datasetTasks(t, n)})
		if !checkPublishBody(t, body) {
			t.Fatalf("the %d-task publication was deferred", n)
		}
		text := string(body)
		scanned := testing.AllocsPerRun(5, func() {
			var p publication
			if p.decode(text) != nil {
				t.Fatal("decode failed")
			}
		})
		oracle := testing.AllocsPerRun(5, func() { publishOracle(body) })
		t.Logf("%d tasks (%d B): scanner %.0f allocations; json.Unmarshal %.0f, %.1f a task",
			n, len(body), scanned, oracle, oracle/float64(n))
		if scanned > most {
			t.Errorf("scanning %d tasks allocates %.0f times, want at most %d", n, scanned, most)
		}
	}
}

// TestBodyIsOneJSONValue: a request body is one JSON value. A second value
// or any other non-whitespace after the first is a 400 that applies
// nothing — on the scanner's path and on encoding/json's — while trailing
// whitespace is fine.
func TestBodyIsOneJSONValue(t *testing.T) {
	ts, srv := testServer(t)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	pub := string(mustMarshal(t, publishBody()))
	odd := strings.Replace(pub, `"tasks"`, `"Tasks"`, 1) // encoding/json's path
	for _, body := range []string{pub + pub, pub + " trailing garbage", odd + " x", pub + "]"} {
		if code := post("/c/p/publish", body); code != http.StatusBadRequest {
			t.Errorf("publish ending %q: %d, want 400", body[len(body)-16:], code)
		}
	}
	if list := srv.Registry().Campaigns(); len(list) != 0 {
		t.Fatalf("refused publishes left campaigns %+v", list)
	}
	if code := post("/campaigns", `{"name":"a"}{"name":"b"}`); code != http.StatusBadRequest {
		t.Errorf("create with two values: %d, want 400", code)
	}
	if list := srv.Registry().Campaigns(); len(list) != 0 {
		t.Fatalf("a refused create made campaigns %+v", list)
	}
	if code := post("/c/p/publish", pub+" \n\t\r "); code != http.StatusOK {
		t.Fatalf("publish with trailing whitespace: %d, want 200", code)
	}
	bad := map[string]string{
		"/c/p/submit":       `{"worker":"w","task":1,"choice":0}{"worker":"w2","task":2,"choice":1}`,
		"/c/p/submit-batch": `{"answers":[{"worker":"w","task":1,"choice":0}]}{"answers":[]}`,
	}
	for path, body := range bad {
		if code := post(path, body); code != http.StatusBadRequest {
			t.Errorf("%s with two values: %d, want 400", path, code)
		}
	}
	var st statsJSON
	mustGetJSON(t, ts.URL+"/c/p/stats", &st)
	if st.Answers != 0 {
		t.Fatalf("refused bodies applied %d answers", st.Answers)
	}
	if code := post("/c/p/submit", `{"worker":"w","task":1,"choice":0}`+"\n"); code != http.StatusOK {
		t.Fatalf("submit with a trailing newline: %d, want 200", code)
	}
	if code := post("/c/p/submit-batch", `{"answers":[{"worker":"w","task":2,"choice":0}]} `); code != http.StatusOK {
		t.Fatalf("batch with a trailing space: %d, want 200", code)
	}
}

// TestDeclaredLengthSizesNothing: the body buffer grows as bytes arrive, so
// a publish that declares a Content-Length at the 64 MiB cap and sends a few
// bytes, or a few MiB, allocates on the order of what it sent, not of what
// it declared.
func TestDeclaredLengthSizesNothing(t *testing.T) {
	_, srv := testServer(t)
	h := srv.Handler()
	// publish sends body declaring the cap and returns what it allocated.
	publish := func(body string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req := httptest.NewRequest(http.MethodPost, "/c/p/publish", strings.NewReader(body))
		req.ContentLength = maxPublishBodyBytes
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("a %d-byte publication declaring %d bytes: %d, want 400", len(body), req.ContentLength, rec.Code)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	var short uint64
	for i := 0; i < 4; i++ {
		short += publish(`{"tasks":[]}`)
	}
	if short > 16<<20 {
		t.Fatalf("four short publishes declaring %d bytes each allocated %d bytes", maxPublishBodyBytes, short)
	}
	// An unterminated publication padded to 3 MiB: read into buffers that
	// double as it arrives, then copied once for json.Unmarshal's verdict.
	sent := `{"tasks":[` + strings.Repeat(" ", 3<<20)
	if got := publish(sent); got > 16<<20 {
		t.Fatalf("a %d-byte publish declaring %d bytes allocated %d bytes", len(sent), maxPublishBodyBytes, got)
	}
}

// TestHonestBodyReadIntoItsSize: a body whose request declares its length
// is read into buffers that double from firstBodyRead and end at exactly its
// own size — a 6,000-task publication allocates those and the read chunk,
// with no copy after them — and comes back whole.
func TestHonestBodyReadIntoItsSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not comparable under the race detector")
	}
	body := mustMarshal(t, publishRequest{Tasks: datasetTasks(t, 6000)})
	most := uint64(32<<10 + 16<<10) // the read chunk, and slack
	for size := firstBodyRead; ; size *= 2 {
		if size >= len(body) {
			most += uint64(len(body))
			break
		}
		most += uint64(size)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readBody(bytes.NewReader(body), int64(len(body)))
	runtime.ReadMemStats(&after)
	if err != nil || got != string(body) {
		t.Fatalf("read %d of %d bytes back, err %v", len(got), len(body), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > most {
		t.Errorf("reading a %d-byte body allocated %d bytes, want at most %d", len(body), alloc, most)
	}
}

// TestPublishPinsNoBody: a served task keeps its own text and choices
// alive, not the /publish body they were scanned from. The same 200 tasks
// are published twice, once in the canonical body and once padded with
// 8 MiB of whitespace between its tasks, which the scanner still takes;
// after a GC the padded publish leaves the heap less than 1 MiB larger
// than the plain one.
func TestPublishPinsNoBody(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not comparable under the race detector")
	}
	body := mustMarshal(t, publishRequest{Tasks: datasetTasks(t, 200)})
	pad := strings.Repeat(" ", 8<<20/199+1)
	padded := []byte(strings.ReplaceAll(string(body), `},{`, "},"+pad+"{"))
	if len(padded)-len(body) < 8<<20 {
		t.Fatalf("padded by %d bytes, want at least 8 MiB", len(padded)-len(body))
	}
	if !checkPublishBody(t, padded) {
		t.Fatal("the scanner deferred the padded body")
	}
	// retained publishes body to a fresh server and returns how much the
	// live heap grew by.
	retained := func(body []byte) int64 {
		ts, srv := testServer(t)
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		before := int64(m.HeapAlloc)
		resp, err := http.Post(ts.URL+"/c/pin/publish", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("publish = %d", resp.StatusCode)
		}
		runtime.GC()
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(srv)
		runtime.KeepAlive(body) // the test's copy is alive on both sides
		return int64(m.HeapAlloc) - before
	}
	plain, fat := retained(body), retained(padded)
	t.Logf("the live heap grew by %d B after the plain publish, %d B after the padded one", plain, fat)
	if fat-plain >= 1<<20 {
		t.Errorf("the padded publish keeps %d B more alive than the plain one, want < 1 MiB", fat-plain)
	}
}
