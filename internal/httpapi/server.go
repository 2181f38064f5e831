package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"docs"
)

// Package httpapi implements the docs-server HTTP API as an importable
// handler, so the real server (cmd/docs-server), the end-to-end tests and
// the benchmark's in-process rungs (cmd/docs-perf) all drive the exact same
// routing, decoding and stats code.
//
// Server exposes a campaign registry over a JSON HTTP API: one process
// hosts many named DOCS campaigns (each a full serving core with its own
// WAL namespace) over one shared worker store, so a worker profiled in one
// campaign keeps their domain-quality profile in every other.
//
//	GET  /campaigns                      → list hosted campaigns
//	POST /campaigns  {"name":"photos"}   → create an empty campaign
//	POST /c/{campaign}/publish  {"tasks":[...]}   (creates the campaign if absent)
//	GET  /c/{campaign}/request?worker=W&k=20      → {"tasks":[...]}
//	POST /c/{campaign}/submit   {"worker":"W","task":0,"choice":1}
//	POST /c/{campaign}/submit-batch  {"answers":[...]}   (docs/protocol.md)
//	GET  /c/{campaign}/result?task=0              → current inferred truth
//	GET  /c/{campaign}/results                    → final inference
//	GET  /c/{campaign}/worker?id=W                → quality vector
//	GET  /c/{campaign}/stats                      → serving counters
//	POST /c/{campaign}/archive                    → end the campaign for good
//	GET  /domains, GET /healthz                   → registry-wide
//
// A fresh server hosts no campaign; every campaign endpoint lives under its
// /c/{campaign}/ namespace only.
//
// Handlers take no server-wide lock: each request resolves its campaign in
// the registry (an RLock'd map read) and the campaign's docs.System is
// safe for concurrent use. Whether a campaign is published is always read
// from the serving core itself — the server caches no publish flag, so
// /stats, /request and the recovery-restore path can never disagree about
// a half-applied publish. No field is written after New.
type Server struct {
	reg      *docs.Registry
	maxBatch int
	// maxPublishBody is maxPublishBodyBytes; a field only so the in-package
	// tests can exercise the cap without posting 64 MiB.
	maxPublishBody int64
	start          time.Time
}

// maxSmallBodyBytes caps the bodies of POST /submit and POST /campaigns,
// whose legitimate payloads (one answer, one name) are well under 1 KiB.
const maxSmallBodyBytes = 4 << 10

// maxPublishBodyBytes caps the body of POST /publish. A publication is the
// one legitimately large request (6,000 tasks are about 1.3 MB), so the cap
// is generous; it exists so the decoder cannot be made to buffer without
// bound.
const maxPublishBodyBytes = 64 << 20

// Options tunes the handler independently of the campaign Config.
type Options struct {
	// MaxBatch clamps how many items one POST /submit-batch materializes
	// (0 = DefaultMaxBatch). Items past the clamp are rejected per-item.
	MaxBatch int
}

// New opens the campaign registry and returns the server. Close it when
// done.
func New(cfg docs.Config, opts Options) (*Server, error) {
	reg, err := docs.OpenRegistry(cfg)
	if err != nil {
		return nil, err
	}
	maxBatch := opts.MaxBatch
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	//docs:allow clock uptime anchor for /stats; reporting only, never durable
	return &Server{reg: reg, maxBatch: maxBatch, maxPublishBody: maxPublishBodyBytes, start: time.Now()}, nil
}

// Close shuts the registry down gracefully (drain workers, flush + fsync
// every campaign's WAL, release the shared store).
func (s *Server) Close() error { return s.reg.Close() }

// Registry exposes the underlying campaign registry (the server's own
// handle — callers must not Close it).
func (s *Server) Registry() *docs.Registry { return s.reg }

func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /campaigns", s.handleCampaigns)
	mux.HandleFunc("POST /campaigns", s.handleCreate)
	mux.HandleFunc("POST /c/{campaign}/publish", s.handlePublish)
	mux.HandleFunc("GET /c/{campaign}/request", s.handleRequest)
	mux.HandleFunc("POST /c/{campaign}/submit", s.handleSubmit)
	mux.HandleFunc("POST /c/{campaign}/submit-batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /c/{campaign}/result", s.handleResult)
	mux.HandleFunc("GET /c/{campaign}/results", s.handleResults)
	mux.HandleFunc("GET /c/{campaign}/worker", s.handleWorker)
	mux.HandleFunc("GET /c/{campaign}/stats", s.handleStats)
	mux.HandleFunc("POST /c/{campaign}/archive", s.handleArchive)
	mux.HandleFunc("GET /domains", s.handleDomains)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// campaign resolves the request's campaign, writing the error response
// (404 unknown, 410 archived) when it cannot.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request) (*docs.System, string, bool) {
	name := r.PathValue("campaign")
	sys, err := s.reg.Campaign(name)
	switch {
	case err == nil:
		return sys, name, true
	case errors.Is(err, docs.ErrCampaignArchived):
		writeErr(w, http.StatusGone, err)
	case errors.Is(err, docs.ErrCampaignNotFound):
		writeErr(w, http.StatusNotFound, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
	return nil, name, false
}

type taskJSON struct {
	ID          int      `json:"id"`
	Text        string   `json:"text"`
	Choices     []string `json:"choices"`
	GoldenTruth int      `json:"golden_truth"`
}

// publishRequest is a /publish body as encoding/json decodes it: for a body
// the scanner defers, and as its test oracle.
type publishRequest struct {
	Tasks []taskJSON `json:"tasks"`
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.reg.Campaigns()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	if !decodeBody(w, r, maxSmallBodyBytes, jsonInto(&req)) {
		return
	}
	if _, err := s.reg.Create(req.Name); err != nil {
		writeErr(w, createStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"created": req.Name})
}

// createStatus is the status a failed Create answers: 400 for an illegal
// name, 409 for a taken one, and 500 for anything else — the server could
// not make the campaign's namespace durable.
func createStatus(err error) int {
	switch {
	case errors.Is(err, docs.ErrCampaignName):
		return http.StatusBadRequest
	case errors.Is(err, docs.ErrCampaignExists):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("campaign")
	if err := s.reg.Archive(name); err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, docs.ErrCampaignNotFound):
			code = http.StatusNotFound
		case errors.Is(err, docs.ErrCampaignArchived):
			code = http.StatusGone
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"archived": name})
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var tasks publication
	if !decodeBody(w, r, s.maxPublishBody, tasks.decode) {
		return
	}
	if len(tasks) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("no tasks"))
		return
	}
	name := r.PathValue("campaign")
	var checked *docs.Publication // the batch converted and checked, once
	sys, err := s.reg.Campaign(name)
	if errors.Is(err, docs.ErrCampaignNotFound) {
		// Publishing to a fresh name creates the campaign — the one-call
		// path a requester actually wants. Everything Publish can reject
		// the batch for is checked first, so a bad request never leaves an
		// empty campaign (a directory, a WAL, a slot under the resident
		// cap) behind.
		if checked, err = docs.CheckPublication(tasks); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		sys, err = s.reg.Create(name)
		if errors.Is(err, docs.ErrCampaignExists) {
			// Lost a race with a concurrent publish to the same fresh
			// name: re-resolve and fall through to the published check,
			// so the loser gets the same 409 a plain double publish gets.
			// A name that does not re-resolve collided with an existing
			// campaign in case only; Create's error names which.
			collision := err
			if sys, err = s.reg.Campaign(name); errors.Is(err, docs.ErrCampaignNotFound) {
				writeErr(w, http.StatusConflict, collision)
				return
			}
		} else if err != nil {
			writeErr(w, createStatus(err), err)
			return
		}
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, docs.ErrCampaignArchived) {
			code = http.StatusGone
		}
		writeErr(w, code, err)
		return
	}
	if sys.Published() {
		writeErr(w, http.StatusConflict, fmt.Errorf("tasks already published"))
		return
	}
	if checked == nil {
		if checked, err = docs.CheckPublication(tasks); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	// docs.System.PublishChecked is itself exclusive and rejects a second
	// publication, so a racing pair of publishes cannot both succeed; the
	// check above only provides the friendlier 409 for the common case.
	// There is no server-side published flag to resync: every reader asks
	// the serving core, and a publish that fails its WAL append fails the
	// campaign, whose next core is woken from the log.
	if err := sys.PublishChecked(checked); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"campaign":  name,
		"published": len(tasks),
		"golden":    sys.GoldenTaskIDs(),
	})
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing worker"))
		return
	}
	k := 0
	if ks := r.URL.Query().Get("k"); ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid k: %w", err))
			return
		}
	}
	sys, _, ok := s.campaign(w, r)
	if !ok {
		return
	}
	if !sys.Published() {
		writeErr(w, http.StatusConflict, fmt.Errorf("no tasks published"))
		return
	}
	tasks, err := sys.Request(worker, k)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out := make([]taskJSON, 0, len(tasks))
	for _, t := range tasks {
		// Golden truth is never leaked to workers.
		out = append(out, taskJSON{ID: t.ID, Text: t.Text, Choices: t.Choices, GoldenTruth: docs.NoTruth})
	}
	writeJSON(w, http.StatusOK, map[string]any{"tasks": out})
}

type submitRequest struct {
	Worker string `json:"worker"`
	Task   int    `json:"task"`
	Choice int    `json:"choice"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, maxSmallBodyBytes, jsonInto(&req)) {
		return
	}
	sys, _, ok := s.campaign(w, r)
	if !ok {
		return
	}
	if !sys.Published() {
		writeErr(w, http.StatusConflict, fmt.Errorf("no tasks published"))
		return
	}
	if err := sys.Submit(req.Worker, req.Task, req.Choice); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("task"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid task: %w", err))
		return
	}
	sys, _, ok := s.campaign(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sys.CurrentResult(id))
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	sys, _, ok := s.campaign(w, r)
	if !ok {
		return
	}
	// Results infers over a snapshot of the answer log; submits keep
	// flowing while inference and response encoding run.
	results, err := sys.Results()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *Server) handleWorker(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing id"))
		return
	}
	sys, _, ok := s.campaign(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"worker":  id,
		"quality": sys.WorkerQuality(id),
		"domains": sys.DomainNames(),
	})
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	// The domain taxonomy is a property of the knowledge base, shared by
	// every campaign, so the endpoint stays registry-wide.
	names, err := docs.DomainNames()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"domains": names})
}

// statsJSON is the per-campaign /stats payload: the campaign's counters
// (docs.Stats) and the registry's (docs.RegistryStats), each declared once
// on the struct of the layer that owns it, and the keys computed here at
// read time.
type statsJSON struct {
	Campaign string `json:"campaign"`
	docs.Stats
	docs.RegistryStats
	UptimeSeconds float64 `json:"uptime_seconds"`
	// AnswersPerSec is the answers the campaign's current core accepted
	// over that core's age: a replayed answer never counts.
	AnswersPerSec float64 `json:"answers_per_sec"`
	Goroutines    int     `json:"goroutines"`
	// BatchAnswersMean is batch_answers_total over batches_total (0 until
	// the first batch).
	BatchAnswersMean float64 `json:"batch_answers_mean"`
	WakeP50Ms        float64 `json:"wake_p50_ms"`
	WakeP99Ms        float64 `json:"wake_p99_ms"`
	RecoverySeconds  float64 `json:"recovery_seconds"`
	// SnapshotsCompleted is always 0: Hibernate, the only snapshot writer,
	// runs as the campaign's core is released, so no serving core has
	// completed a pass. The field stays for the clients that read it.
	SnapshotsCompleted int64 `json:"snapshots_completed"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sys, name, ok := s.campaign(w, r)
	if !ok {
		return
	}
	// One read of the campaign: every campaign key comes from the same
	// core, even if the campaign is evicted and woken around this call.
	out := statsJSON{Campaign: name, Stats: sys.Stats(), RegistryStats: s.reg.Stats(),
		//docs:allow clock /stats uptime; reporting only, never durable
		UptimeSeconds: time.Since(s.start).Seconds(), Goroutines: runtime.NumGoroutine()}
	//docs:allow clock /stats rate; reporting only, never durable
	if age := time.Since(out.Since).Seconds(); age > 0 {
		out.AnswersPerSec = float64(out.Served) / age
	}
	if out.BatchesTotal > 0 {
		out.BatchAnswersMean = float64(out.BatchAnswersTotal) / float64(out.BatchesTotal)
	}
	out.WakeP50Ms = float64(out.WakeP50) / float64(time.Millisecond)
	out.WakeP99Ms = float64(out.WakeP99) / float64(time.Millisecond)
	out.RecoverySeconds = out.Duration.Seconds()
	writeJSON(w, http.StatusOK, out)
}

// statusFor maps a serving error to an HTTP status: durability failures
// are the server's fault (500), a campaign archived since the request
// resolved it is gone (410), everything else is a rejected input (400).
func statusFor(err error) int {
	switch {
	case errors.Is(err, docs.ErrDurability):
		return http.StatusInternalServerError
	case errors.Is(err, docs.ErrCampaignArchived):
		return http.StatusGone
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are out; nothing more to do but note it.
		log.Printf("docs-server: encode response: %v", err)
	}
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody reads r's body — one JSON value, capped at limit bytes — into
// one string (readBody) and hands it to decode. On failure it answers the
// request itself — 413 for a body over the cap, 400 for any other — and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, decode func(body string) error) bool {
	body, err := readBody(http.MaxBytesReader(w, r.Body, limit), min(r.ContentLength, limit))
	if err == nil {
		err = decode(body)
	}
	if err == nil {
		return true
	}
	if errors.As(err, new(*http.MaxBytesError)) {
		writeErr(w, http.StatusRequestEntityTooLarge, err)
	} else {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err))
	}
	return false
}

// firstBodyRead is the most a body's buffer holds before any of it has
// arrived, whatever length its request declares; undeclaredBodyRead is what
// it holds then when the request declares none.
const firstBodyRead, undeclaredBodyRead = 64 << 10, 512

// readBody reads src to its end into one string. The length the request
// declared for it (negative when none) sizes the buffer only as far as the
// body bears it out: the buffer starts at the declared length, up to
// firstBodyRead, and when full doubles, to no more than the declared length
// while the body keeps within it. An honest body ends in a buffer of its
// own size, with no copy out of it; a client that declares much and sends
// little holds about twice what it sent.
func readBody(src io.Reader, declared int64) (string, error) {
	size := int64(undeclaredBodyRead)
	if declared >= 0 {
		size = min(declared, firstBodyRead)
	}
	b := new(strings.Builder)
	b.Grow(int(size))
	chunk := make([]byte, min(size+1, 32<<10))
	for {
		n, err := src.Read(chunk)
		if have := b.Len(); n > b.Cap()-have {
			next := max(2*b.Cap(), have+n)
			if int64(have+n) <= declared {
				next = min(next, int(declared))
			}
			// A fresh builder, so the buffer is next bytes exactly:
			// strings.Builder.Grow would make it 2·cap + what it asks.
			grown := new(strings.Builder)
			grown.Grow(next)
			grown.WriteString(b.String())
			b = grown
		}
		b.Write(chunk[:n])
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return "", err
		}
	}
}

// jsonInto decodes a body into v with json.Unmarshal.
func jsonInto(v any) func(body string) error {
	return func(body string) error { return json.Unmarshal([]byte(body), v) }
}
