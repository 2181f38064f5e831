package dve

import (
	"fmt"
	"runtime"
	"testing"

	"docs/internal/dataset"
	"docs/internal/entitylink"
	"docs/internal/kb"
	"docs/internal/model"
)

// Allocation guard for what a published task costs: a fixed handful of
// allocations, none of them per alias in the knowledge base, per candidate
// or per domain.

// allocsPublishPath is the most a warm Workspace's Vector may allocate for
// allocText: the normalized copy of the text. The domain vector it returns
// is the workspace's own; Publish copies it only for a vector no earlier
// task of the publication has.
const allocsPublishPath = 1

const allocText = "Does Michael Jordan win more NBA championships than Kobe or the others?"

// allocKB is a 26-domain knowledge base of nAliases aliases: the three
// concepts allocText mentions and filler concepts of two-word names.
func allocKB(t *testing.T, nAliases int) *kb.KB {
	t.Helper()
	k := kb.New(model.MustDomainSet(kb.YahooDomains))
	add := func(c *kb.Concept) {
		t.Helper()
		if err := k.AddConcept(c); err != nil {
			t.Fatal(err)
		}
	}
	add(&kb.Concept{ID: "player", Name: "Michael Jordan", Domains: []int{23, 8}, Prior: 0.7, Context: []string{"nba", "championships"}})
	add(&kb.Concept{ID: "kobe", Name: "Kobe", Domains: []int{23}, Prior: 1, Context: []string{"nba"}})
	add(&kb.Concept{ID: "professor", Name: "Michael I. Jordan", Domains: []int{20, 4}, Prior: 0.2, Context: []string{"learning"}})
	if err := k.AddAlias("Michael Jordan", "professor"); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < nAliases; i++ {
		add(&kb.Concept{ID: fmt.Sprintf("filler%d", i), Name: fmt.Sprintf("filler%d word%d", i, i%7), Domains: []int{i % 26}, Prior: 1})
	}
	return k
}

func TestAllocsLinkAndCompute(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	if n := len(entitylink.Tokenize(allocText)); n != 12 {
		t.Fatalf("allocText has %d tokens, want 12", n)
	}
	const m = 26
	var perKB [2]float64
	for i, nAliases := range []int{300, 3000} {
		l := entitylink.New(allocKB(t, nAliases))
		if n := len(l.Link(allocText)); n != 2 {
			t.Fatalf("allocText links %d entities against %d aliases, want 2", n, nAliases)
		}
		var ws Workspace
		publish := func() { ws.Vector(l, allocText, m) }
		perKB[i] = testing.AllocsPerRun(100, publish)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < 1000; n++ {
			publish()
		}
		runtime.ReadMemStats(&after)
		t.Logf("%d aliases: %.0f allocations, %d B per published task", nAliases, perKB[i], (after.TotalAlloc-before.TotalAlloc)/1000)
	}
	if perKB[0] > allocsPublishPath || perKB[1] != perKB[0] {
		t.Errorf("a published task costs %.0f allocations against 300 aliases and %.0f against 3,000, want the same at most %d against both", perKB[0], perKB[1], allocsPublishPath)
	}

	// Compute: two entities whose candidates support domains 0 and 1 only.
	// A fresh Compute pays for its own integer block and table.
	// Widening the domain set with unsupported domains adds no allocation.
	ents := func(m int) []Entity {
		h := func(ks ...int) []float64 {
			v := make([]float64, m)
			for _, k := range ks {
				v[k] = 1
			}
			return v
		}
		return []Entity{
			{Probs: []float64{0.7, 0.3}, H: [][]float64{h(0, 1), h(1)}},
			{Probs: []float64{1}, H: [][]float64{h(0)}},
		}
	}
	narrow, wide := ents(2), ents(260)
	at2 := testing.AllocsPerRun(100, func() { Compute(narrow, 2) })
	at260 := testing.AllocsPerRun(100, func() { Compute(wide, 260) })
	t.Logf("Compute: %.0f allocations at m = 2, %.0f at m = 260", at2, at260)
	if at2 != 3 || at260 != 3 {
		t.Errorf("Compute allocates %.0f times at m = 2 and %.0f at m = 260, want 3 at both (result, integer block, table)", at2, at260)
	}
}

// TestAllocsDVEPerTask: over every task text of the four datasets, a warm
// Workspace — what each of Publish's DVE goroutines runs — allocates on
// average at most one object and 80 B a task: the text's normalized copy,
// and no domain vector.
func TestAllocsDVEPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const maxAllocs, maxBytes = 1, 80
	k := kb.MustDefault()
	m := k.Domains().Size()
	l := entitylink.New(k)
	var texts []string
	for _, ds := range dataset.All(1) {
		for _, task := range ds.Tasks {
			texts = append(texts, task.Text)
		}
	}
	var ws Workspace
	publish := func() {
		for _, text := range texts {
			ws.Vector(l, text, m)
		}
	}
	publish() // the workspace grows to the largest text once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(texts))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(texts))
	t.Logf("%d texts: %.2f allocations, %.0f B a task", len(texts), allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("DVE allocates %.2f times and %.0f B a task, want at most %d and %d B", allocs, bytes, maxAllocs, maxBytes)
	}
}
