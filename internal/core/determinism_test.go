package core

import (
	"fmt"
	"testing"

	"docs/internal/crowd"
	"docs/internal/dataset"
	"docs/internal/kb"
)

func campaignTrace(t *testing.T) string {
	ds := dataset.Item(3)
	tasks := ds.Tasks[:120]
	// Regenerate tasks fresh each run (Item(3) returns same pointers otherwise? No — fresh objects each call)
	s := newSystem(t, Config{GoldenCount: 8, HITSize: 4, AnswersPerTask: 5, RerunEvery: 50})
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	m := kb.MustDefault().Domains().Size()
	pop, err := crowd.NewPopulation(crowd.Config{NumWorkers: 24, M: m, RelevantDomains: ds.YahooIndex, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := pop.Rand()
	trace := ""
	for hit := 0; hit < 400; hit++ {
		w := pop.Arrival()
		got, err := s.Request(w.ID, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			break
		}
		for _, tk := range s.Tasks(got) {
			c := w.Answer(&tk, r)
			trace += fmt.Sprintf("%s:%d:%d;", w.ID, tk.ID, c)
			if err := s.Submit(w.ID, tk.ID, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trace
}

func TestCampaignDeterminism(t *testing.T) {
	a := campaignTrace(t)
	b := campaignTrace(t)
	if a == b {
		t.Log("traces identical")
		return
	}
	// find first divergence
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hi := i + 120
			if hi > n {
				hi = n
			}
			t.Fatalf("diverge at %d:\nA: ...%s\nB: ...%s", i, a[lo:hi], b[lo:hi])
		}
	}
	t.Fatalf("one trace is a prefix of the other (len %d vs %d)", len(a), len(b))
}
