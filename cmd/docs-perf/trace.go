package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the boundary. Parent is the index of the enclosing
// span (-1 for a rung's root); spans of one worker visit share Visit.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Visit   int    `json:"visit"`
	// Calls is how many back-to-back calls the span covers: 1 except for
	// nanosecond-scale functions, which are timed as one loop.
	Calls int `json:"calls"`
}

// tracer keeps spans in memory; flush writes them out at exit.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, visit int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Visit: visit, Calls: 1,
		StartNs: time.Since(t.origin).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNs = time.Since(t.origin).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// meanUnder is the mean duration per call of the spans called name under
// root (at any depth).
func (t *tracer) meanUnder(root int, name string) (time.Duration, int) {
	var total time.Duration
	calls := 0
	for i := root + 1; i < len(t.spans); i++ {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		for p := s.Parent; p >= root; p = t.spans[p].Parent {
			if p == root {
				total += time.Duration(s.EndNs - s.StartNs)
				calls += s.Calls
				break
			}
		}
	}
	if calls == 0 {
		return 0, 0
	}
	return total / time.Duration(calls), calls
}

// flush writes every span recorded so far to path as JSON.
func (t *tracer) flush(path string) error {
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
