package httpapi

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"docs"
	"docs/internal/registry"
)

// FuzzSubmitJSON drives arbitrary bytes through the POST
// /c/{campaign}/submit body — the one endpoint every worker on the platform
// hits — against a live published campaign. The handler must never panic and must answer every body with a
// well-formed JSON response in {200, 400}; anything else means hostile
// input reached deeper than the decode layer. Seed corpus under
// testdata/fuzz/FuzzSubmitJSON (checked in).
func FuzzSubmitJSON(f *testing.F) {
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, RerunEvery: -1}, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	// Publish a minimal campaign so valid submits exercise the accept path.
	tasks := []docs.Task{
		{ID: 0, Text: "a or b", Choices: []string{"a", "b"}, GoldenTruth: docs.NoTruth},
		{ID: 1, Text: "c or d", Choices: []string{"c", "d"}, GoldenTruth: docs.NoTruth},
	}
	sys, err := srv.reg.Create("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if err := sys.Publish(tasks); err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Add(`{"worker":"w1","task":0,"choice":1}`)
	f.Add(`{"worker":"","task":0,"choice":0}`)
	f.Add(`{"worker":"w1","task":99,"choice":0}`)
	f.Add(`{"worker":"w1","task":0,"choice":-1}`)
	f.Add(`{"task":0}`)
	f.Add(`{}`)
	f.Add(``)
	f.Add(`[`)
	f.Add(`{"worker":"w1","task":1e309,"choice":0}`)
	f.Add("{\"worker\":\"\x00\",\"task\":0,\"choice\":0}")
	f.Add(`{"worker":"w1","task":"0","choice":0}`)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/c/fuzz/submit", strings.NewReader(body))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK && rr.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 200 or 400", body, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("body %q: content-type %q", body, ct)
		}
		if !strings.HasPrefix(strings.TrimSpace(rr.Body.String()), "{") {
			t.Fatalf("body %q: non-JSON response %q", body, rr.Body.String())
		}
	})
}

// FuzzCampaignPath throws arbitrary methods, paths and bodies at the full
// campaign router. Whatever the campaign path segment decodes to — path
// traversal attempts, NULs, over-long names — the server must never panic,
// must answer every request, and must never have created a campaign whose
// name fails validation (which is what keeps hostile names out of the WAL
// root's directory namespace). Seed corpus under
// testdata/fuzz/FuzzCampaignPath (checked in).
func FuzzCampaignPath(f *testing.F) {
	srv, err := New(docs.Config{GoldenCount: -1, HITSize: 3, RerunEvery: -1}, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	handler := srv.Handler()

	f.Add("GET", "/c/new-camp/stats", "")
	f.Add("POST", "/c/new-camp/publish", `{"tasks":[{"id":0,"text":"a","choices":["a","b"],"golden_truth":-1}]}`)
	f.Add("POST", "/c/../publish", `{"tasks":[{"id":0,"text":"a","choices":["a","b"],"golden_truth":-1}]}`)
	f.Add("POST", "/c/%2e%2e%2fescape/publish", `{"tasks":[{"id":0,"text":"a","choices":["a","b"],"golden_truth":-1}]}`)
	f.Add("GET", "/c//request?worker=w", "")
	f.Add("GET", "/c/a%00b/stats", "")
	f.Add("POST", "/campaigns", `{"name":"ok-name"}`)
	f.Add("POST", "/campaigns", `{"name":"../escape"}`)
	f.Add("POST", "/c/x/archive", "")
	f.Add("GET", "/c/"+strings.Repeat("x", 200)+"/stats", "")
	f.Fuzz(func(t *testing.T, method, path, body string) {
		if _, err := url.ParseRequestURI(path); err != nil || path == "" || path[0] != '/' {
			t.Skip()
		}
		switch method {
		case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete:
		default:
			t.Skip()
		}
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		if rr.Code < 200 || rr.Code > 599 {
			t.Fatalf("%s %q: status %d", method, path, rr.Code)
		}
		for _, info := range srv.reg.Campaigns() {
			if err := registry.ValidateName(info.Name); err != nil {
				t.Fatalf("%s %q created campaign with illegal name %q: %v", method, path, info.Name, err)
			}
		}
	})
}
