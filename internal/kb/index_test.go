package kb_test

import (
	"math"
	"sync"
	"testing"

	"docs/internal/core"
	"docs/internal/dataset"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/store"
)

func mentions(ents []entitylink.Entity) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Mention
	}
	return out
}

// TestIndexIsMaintainedNotMemoised: the alias index is written by every
// AddConcept / AddAlias, so a linker that has already linked against the KB
// sees an alias registered afterwards — including one longer than any alias
// the KB held before.
func TestIndexIsMaintainedNotMemoised(t *testing.T) {
	k := kb.New(model.MustDomainSet([]string{"politics", "sports"}))
	if err := k.AddConcept(&kb.Concept{ID: "city/york", Name: "York", Domains: []int{0}, Prior: 1}); err != nil {
		t.Fatal(err)
	}
	l := entitylink.New(k)
	const text = "Is the New York City Football Club from York?"
	if got := mentions(l.Link(text)); len(got) != 2 || got[0] != "york" || got[1] != "york" {
		t.Fatalf("before the insert: mentions %q, want [york york]", got)
	}
	if n := k.MaxAliasWords(); n != 1 {
		t.Fatalf("MaxAliasWords = %d before the insert, want 1", n)
	}

	if err := k.AddConcept(&kb.Concept{ID: "team/nycfc", Name: "NYCFC", Domains: []int{1}, Prior: 1}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddAlias("New York City Football Club", "team/nycfc"); err != nil {
		t.Fatal(err)
	}
	if n := k.MaxAliasWords(); n != 5 {
		t.Errorf("MaxAliasWords = %d after a five-word alias, want 5", n)
	}
	ents := l.Link(text)
	if got := mentions(ents); len(got) != 2 || got[0] != "new york city football club" || got[1] != "york" {
		t.Fatalf("after the insert: mentions %q, want [new york city football club, york]", got)
	}
	if id := ents[0].Candidates[0].Concept.ID; id != "team/nycfc" {
		t.Errorf("the new alias links to %q", id)
	}
}

// TestCandidatesIsAFreshSlice: Candidates hands out a copy, so a caller that
// reorders or overwrites it changes neither later lookups nor the linker.
func TestCandidatesIsAFreshSlice(t *testing.T) {
	k := kb.MustDefault()
	want := k.Candidates("Michael Jordan")
	if len(want) != 3 {
		t.Fatalf("Michael Jordan has %d candidates, want 3", len(want))
	}
	got := k.Candidates("Michael Jordan")
	got[0], got[2] = got[2], got[0]
	got[1] = nil
	again := k.Candidates("michael jordan")
	for i := range want {
		if again[i] != want[i] {
			t.Errorf("candidate %d is %v after a caller reordered its copy, want %s", i, again[i], want[i].ID)
		}
	}
	l := entitylink.New(k)
	l.ContextBoost = 0 // probabilities follow the priors, so the index order shows
	ents := l.Link("Michael Jordan")
	if len(ents) != 1 || len(ents[0].Candidates) != 3 {
		t.Fatalf("Link = %+v", ents)
	}
	for i := range want {
		if ents[0].Candidates[i].Concept != want[i] {
			t.Errorf("linked candidate %d = %s, want %s", i, ents[0].Candidates[i].Concept.ID, want[i].ID)
		}
	}
}

// TestConcurrentPublishSharesDefaultKB publishes two campaigns at once: both
// run DVE against the one kb.Default() index. Under -race this is the proof
// that publication only reads it; the domain vectors must be, bit for bit,
// the ones a lone publish computes.
func TestConcurrentPublishSharesDefaultKB(t *testing.T) {
	publish := func() []*model.Task {
		tasks := dataset.FourDomain(7).Tasks
		for _, task := range tasks {
			task.Domain = nil
		}
		st, err := store.Open("", kb.MustDefault().Domains().Size())
		if err != nil {
			t.Error(err)
			return nil
		}
		s, err := core.New(core.Config{GoldenCount: -1, Store: st, ProfileScope: "publish"})
		if err != nil {
			t.Error(err)
			return nil
		}
		defer s.Close()
		if err := s.Publish(tasks); err != nil {
			t.Error(err)
		}
		return tasks
	}
	want := publish()
	got := make([][]*model.Task, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = publish()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, tasks := range got {
		for j, task := range tasks {
			for d, v := range task.Domain {
				if math.Float64bits(v) != math.Float64bits(want[j].Domain[d]) {
					t.Fatalf("campaign %d task %d domain %d = %x, a lone publish computes %x", i, j, d, math.Float64bits(v), math.Float64bits(want[j].Domain[d]))
				}
			}
		}
	}
}
