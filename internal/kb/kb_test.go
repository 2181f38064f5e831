package kb

import (
	"testing"

	"docs/internal/model"
)

func smallKB(t *testing.T) *KB {
	t.Helper()
	ds := model.MustDomainSet([]string{"politics", "sports", "films"})
	k := New(ds)
	add := func(c *Concept) {
		t.Helper()
		if err := k.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	add(&Concept{ID: "mj_player", Name: "Michael Jordan", Domains: []int{1, 2}, Prior: 0.7})
	add(&Concept{ID: "mj_prof", Name: "Michael I. Jordan", Domains: []int{0}, Prior: 0.2})
	add(&Concept{ID: "mj_actor", Name: "Michael B. Jordan", Domains: []int{2}, Prior: 0.1})
	if err := k.AddAlias("Michael Jordan", "mj_prof"); err != nil {
		t.Fatal(err)
	}
	if err := k.AddAlias("Michael Jordan", "mj_actor"); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestIndicator(t *testing.T) {
	c := &Concept{ID: "x", Name: "X", Domains: []int{1, 2}, Prior: 1}
	h := c.Indicator(3)
	want := []float64{0, 1, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("Indicator[%d] = %g, want %g", i, h[i], want[i])
		}
	}
}

func TestCandidatesOrderedByPrior(t *testing.T) {
	k := smallKB(t)
	cands := k.Candidates("michael  JORDAN")
	if len(cands) != 3 {
		t.Fatalf("got %d candidates, want 3", len(cands))
	}
	wantOrder := []string{"mj_player", "mj_prof", "mj_actor"}
	for i, id := range wantOrder {
		if cands[i].ID != id {
			t.Errorf("candidate %d = %q, want %q", i, cands[i].ID, id)
		}
	}
}

func TestCandidatesUnknown(t *testing.T) {
	k := smallKB(t)
	if got := k.Candidates("nonexistent entity"); got != nil {
		t.Errorf("Candidates(unknown) = %v, want nil", got)
	}
}

func TestAddConceptErrors(t *testing.T) {
	ds := model.MustDomainSet([]string{"a", "b"})
	k := New(ds)
	if err := k.AddConcept(&Concept{ID: "", Name: "x", Domains: []int{0}, Prior: 1}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := k.AddConcept(&Concept{ID: "c", Name: "x", Domains: nil, Prior: 1}); err == nil {
		t.Error("no domains accepted")
	}
	if err := k.AddConcept(&Concept{ID: "c", Name: "x", Domains: []int{5}, Prior: 1}); err == nil {
		t.Error("out-of-range domain accepted")
	}
	if err := k.AddConcept(&Concept{ID: "c", Name: "x", Domains: []int{0}, Prior: 0}); err == nil {
		t.Error("zero prior accepted")
	}
	if err := k.AddConcept(&Concept{ID: "c", Name: "x", Domains: []int{0}, Prior: 1}); err != nil {
		t.Fatalf("valid concept rejected: %v", err)
	}
	if err := k.AddConcept(&Concept{ID: "c", Name: "y", Domains: []int{0}, Prior: 1}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if err := k.AddAlias("z", "missing"); err == nil {
		t.Error("alias to unknown concept accepted")
	}
	if err := k.AddAlias("  ", "c"); err == nil {
		t.Error("blank alias accepted")
	}
}

func TestAliasDeduplication(t *testing.T) {
	k := smallKB(t)
	if err := k.AddAlias("michael jordan", "mj_player"); err != nil {
		t.Fatal(err)
	}
	if got := len(k.Candidates("Michael Jordan")); got != 3 {
		t.Errorf("after duplicate alias: %d candidates, want 3", got)
	}
}

func TestNormalizeMention(t *testing.T) {
	if got := NormalizeMention("  Stephen   CURRY "); got != "stephen curry" {
		t.Errorf("NormalizeMention = %q", got)
	}
}

func TestDefaultKB(t *testing.T) {
	k, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if k.Domains().Size() != 26 {
		t.Errorf("default KB has %d domains, want 26", k.Domains().Size())
	}
	// The paper's running example: "Michael Jordan" must be ambiguous across
	// the player, the professor, and the actor.
	cands := k.Candidates("Michael Jordan")
	if len(cands) != 3 {
		t.Fatalf("Michael Jordan has %d candidates, want 3", len(cands))
	}
	if cands[0].ID != "person/michael_jordan" {
		t.Errorf("top candidate = %q, want the player", cands[0].ID)
	}
	// NBA maps to both the basketball league and the bar association.
	if got := len(k.Candidates("NBA")); got != 2 {
		t.Errorf("NBA has %d candidates, want 2", got)
	}
	// Kobe is ambiguous: player alias, beef, and city.
	if got := len(k.Candidates("Kobe")); got != 3 {
		t.Errorf("Kobe has %d candidates, want 3", got)
	}
	// Every concept's indicator vector is over the 26 domains.
	sports, ok := k.Domains().Index("Sports")
	if !ok {
		t.Fatal("Sports domain missing")
	}
	h := k.Concept("person/kobe_bryant").Indicator(26)
	if h[sports] != 1 {
		t.Error("Kobe Bryant not related to Sports")
	}
}

func TestDefaultKBCategories(t *testing.T) {
	for _, cat := range []string{CatNBAPlayer, CatFood, CatCar, CatCountry, CatMountain, CatFilm} {
		if n := len(CategoryMembers(cat)); n < 10 {
			t.Errorf("category %q has %d members, want >= 10", cat, n)
		}
	}
	members := CategoryMembers(CatNBAPlayer)
	members[0] = "mutated"
	if CategoryMembers(CatNBAPlayer)[0] == "mutated" {
		t.Error("CategoryMembers leaked internal slice")
	}
}

func TestDefaultKBIsSingleton(t *testing.T) {
	a, _ := Default()
	b, _ := Default()
	if a != b {
		t.Error("Default returned different instances")
	}
}

func TestMaxAliasWords(t *testing.T) {
	k := MustDefault()
	if n := k.MaxAliasWords(); n < 3 {
		t.Errorf("MaxAliasWords = %d, want >= 3 (e.g. 'Golden State Warriors')", n)
	}
}
