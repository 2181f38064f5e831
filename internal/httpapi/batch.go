package httpapi

import (
	"fmt"
	"net/http"

	"docs"
)

// DefaultMaxBatch is how many items one POST /submit-batch materializes
// unless -max-batch overrides it.
const DefaultMaxBatch = 256

// maxBatchItemBytes is the body budget per admitted batch item. It bounds
// the whole request body (via http.MaxBytesReader) to maxBatch items of
// generous size plus slack for framing, so the decoder can never be made
// to buffer an unbounded body regardless of what the client claims.
const maxBatchItemBytes = 1 << 10

type batchAnswerJSON struct {
	Worker string `json:"worker"`
	Task   int    `json:"task"`
	Choice int    `json:"choice"`
}

type batchRequest struct {
	Answers []batchAnswerJSON `json:"answers"`
}

type batchItemStatus struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

type batchResponse struct {
	Campaign string            `json:"campaign"`
	Accepted int               `json:"accepted"`
	Rejected int               `json:"rejected"`
	Statuses []batchItemStatus `json:"statuses"`
}

// handleSubmitBatch accepts N answers in one JSON body, validates each item
// independently, and commits all accepted answers as ONE WAL group. The
// response carries one status per item: a bad item never poisons the
// batch (400 is reserved for bodies with no decodable items at all, 5xx
// for a broken durability promise). Items past the -max-batch clamp are
// rejected per-item, mirroring the ?k= clamp on the request path: client
// numbers never size server allocations.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeBody(w, r, int64(s.maxBatch)*maxBatchItemBytes+4096, jsonInto(&req)) {
		return
	}
	if len(req.Answers) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	clamped := 0
	if len(req.Answers) > s.maxBatch {
		clamped = len(req.Answers) - s.maxBatch
		req.Answers = req.Answers[:s.maxBatch]
	}
	answers := make([]docs.Answer, len(req.Answers))
	for i, a := range req.Answers {
		answers[i] = docs.Answer{Worker: a.Worker, TaskID: a.Task, Choice: a.Choice}
	}
	sys, name, ok := s.campaign(w, r)
	if !ok {
		return
	}
	if !sys.Published() {
		writeErr(w, http.StatusConflict, fmt.Errorf("no tasks published"))
		return
	}
	statuses, err := sys.SubmitBatch(answers)
	if err != nil {
		// Batch-level failure: the durability promise broke mid-group.
		// Per-item statuses would be a lie (acks imply durable), so the
		// whole batch answers 5xx; re-submitting is safe — already-applied
		// items are rejected as duplicates, item by item.
		writeErr(w, statusFor(err), err)
		return
	}
	out := batchResponse{Campaign: name, Statuses: make([]batchItemStatus, 0, len(statuses)+clamped)}
	for _, st := range statuses {
		if st.OK {
			out.Accepted++
			out.Statuses = append(out.Statuses, batchItemStatus{OK: true})
		} else {
			out.Rejected++
			out.Statuses = append(out.Statuses, batchItemStatus{Error: st.Error})
		}
	}
	for i := 0; i < clamped; i++ {
		out.Rejected++
		out.Statuses = append(out.Statuses, batchItemStatus{
			Error: fmt.Sprintf("batch clamped to %d items", s.maxBatch)})
	}
	writeJSON(w, http.StatusOK, out)
}
