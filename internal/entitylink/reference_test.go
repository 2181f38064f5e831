package entitylink

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"docs/internal/dataset"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/model"
)

// linkReference is Link exactly as it stood before it walked the compiled
// alias index (PR 22): tokenize through the three-pass normalizer, ask the KB
// how long its longest alias is, then join and probe every window from the
// longest down. It is kept verbatim as the oracle
// TestPropertyLinkMatchesReference and FuzzLinkMatchesReference hold Link to
// — the way inferReference is truth.Infer's.
func linkReference(l *Linker, text string) []Entity {
	tokens := tokenizeReference(text)
	if len(tokens) == 0 {
		return nil
	}
	maxWords := l.kb.MaxAliasWords()
	bag := contextBagReference(tokens)

	var out []Entity
	for i := 0; i < len(tokens); {
		matched := 0
		var mention string
		limit := maxWords
		if rem := len(tokens) - i; rem < limit {
			limit = rem
		}
		for n := limit; n >= 1; n-- {
			candidate := strings.Join(tokens[i:i+n], " ")
			if l.kb.HasAlias(candidate) {
				matched = n
				mention = candidate
				break
			}
		}
		if matched == 0 {
			i++
			continue
		}
		ent := disambiguateReference(l, mention, i, bag)
		if len(ent.Candidates) > 0 {
			out = append(out, ent)
		}
		i += matched
	}
	return out
}

func disambiguateReference(l *Linker, mention string, start int, bag map[string]bool) Entity {
	concepts := l.kb.Candidates(mention)
	topC := l.TopC
	if topC <= 0 {
		topC = DefaultTopC
	}
	scores := make([]float64, len(concepts))
	for j, c := range concepts {
		hits := 0
		for _, kw := range c.Context {
			if bag[kw] {
				hits++
			}
		}
		scores[j] = c.Prior * (1 + l.ContextBoost*float64(hits))
	}
	order := mathx.TopK(scores, topC)
	cands := make([]Candidate, 0, len(order))
	var total float64
	for _, j := range order {
		total += scores[j]
	}
	for _, j := range order {
		cands = append(cands, Candidate{Concept: concepts[j], Prob: scores[j] / total})
	}
	return Entity{Mention: mention, Start: start, Candidates: cands}
}

func contextBagReference(tokens []string) map[string]bool {
	bag := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		bag[t] = true
	}
	return bag
}

// contextBag is the disambiguation context as Link held it before the
// keyword bitset: the text's tokens cloned and sorted, each context keyword
// binary-searched in it.
func contextBag(tokens []string) []string {
	bag := slices.Clone(tokens)
	slices.Sort(bag)
	return bag
}

func bagHits(c *kb.Concept, bag []string) int {
	hits := 0
	for _, kw := range c.Context {
		if _, ok := slices.BinarySearch(bag, kw); ok {
			hits++
		}
	}
	return hits
}

// TestPropertyKeywordBitsetMatchesBag: for every concept any window of a
// text could link to, the bitset counts the hits the sorted bag counts,
// through one workspace that is all zeros again after every text.
func TestPropertyKeywordBitsetMatchesBag(t *testing.T) {
	var texts []string
	for _, ds := range dataset.All(1) {
		for _, task := range ds.Tasks {
			texts = append(texts, task.Text)
		}
	}
	texts = append(texts, adversarialTexts...)
	var ws Workspace
	checked := 0
	for _, k := range []*kb.KB{kb.MustDefault(), adversarialKB(t)} {
		for _, text := range texts {
			tokens := Tokenize(text)
			bag := contextBag(tokens)
			ws.mark(k, tokens)
			for i := range tokens {
				_, concepts := k.LongestAlias(tokens[i:])
				for _, c := range concepts {
					if got, want := ws.hits(c), bagHits(c, bag); got != want {
						t.Fatalf("%q: %s has %d hits in the bitset, %d in the bag", text, c.ID, got, want)
					}
					checked += bagHits(c, bag)
				}
			}
			ws.unmark()
			for i, w := range ws.marks {
				if w != 0 {
					t.Fatalf("after %q the bitset's word %d is %x, want 0", text, i, w)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no context keyword hit anywhere: the property is vacuous")
	}
}

// tokenizeReference is Tokenize over kb.NormalizeMention as both stood
// before the single-pass tokenizer.
func tokenizeReference(text string) []string {
	var b strings.Builder
	b.Grow(len(text))
	for _, r := range strings.ToLower(text) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '\'', r == '-':
			b.WriteRune(r)
		case r > 127: // keep non-ASCII letters (e.g. "Beyoncé", "Pelé")
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return strings.Fields(strings.Join(strings.Fields(b.String()), " "))
}

// diffLinked reports the first difference between two linkings: entity
// count, Mention, Start, the candidates' concept pointers in order and the
// bits of every probability.
func diffLinked(got, want []Entity) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entities, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Mention != w.Mention || g.Start != w.Start {
			return fmt.Sprintf("entity %d is %q at %d, reference %q at %d", i, g.Mention, g.Start, w.Mention, w.Start)
		}
		if len(g.Candidates) != len(w.Candidates) {
			return fmt.Sprintf("entity %d (%q) has %d candidates, reference %d", i, w.Mention, len(g.Candidates), len(w.Candidates))
		}
		for j := range w.Candidates {
			if g.Candidates[j].Concept != w.Candidates[j].Concept {
				return fmt.Sprintf("entity %d (%q) candidate %d is %s, reference %s", i, w.Mention, j, g.Candidates[j].Concept.ID, w.Candidates[j].Concept.ID)
			}
			if gb, wb := math.Float64bits(g.Candidates[j].Prob), math.Float64bits(w.Candidates[j].Prob); gb != wb {
				return fmt.Sprintf("entity %d (%q) candidate %d has probability bits %x, reference %x", i, w.Mention, j, gb, wb)
			}
		}
	}
	return ""
}

// adversarialKB holds what the curated catalogue does not: an alias that is
// a strict prefix of a longer one, tied priors, a non-ASCII name whose
// lowercase is ASCII, an apostrophe and a hyphen inside names, and an alias
// spelled with a no-break space.
func adversarialKB(t testing.TB) *kb.KB {
	t.Helper()
	k := kb.New(model.MustDomainSet([]string{"politics", "sports", "films", "travel"}))
	add := func(c *kb.Concept, aliases ...string) {
		t.Helper()
		if err := k.AddConcept(c); err != nil {
			t.Fatal(err)
		}
		for _, a := range aliases {
			if err := k.AddAlias(a, c.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(&kb.Concept{ID: "city/new_york", Name: "New York", Domains: []int{3}, Prior: 0.6, Context: []string{"city", "visit"}})
	add(&kb.Concept{ID: "state/new_york", Name: "New York State", Domains: []int{0, 3}, Prior: 0.6, Context: []string{"governor"}}, "New York")
	add(&kb.Concept{ID: "team/nycfc", Name: "New York City Football Club", Domains: []int{1}, Prior: 1, Context: []string{"football", "club"}}, "New York")
	add(&kb.Concept{ID: "city/washington", Name: "Washington, D.C.", Domains: []int{0}, Prior: 0.5, Context: []string{"capital"}}, "Washington")
	add(&kb.Concept{ID: "person/washington", Name: "George Washington", Domains: []int{0}, Prior: 0.5, Context: []string{"president"}}, "Washington")
	add(&kb.Concept{ID: "person/oneal", Name: "Shaquille O'Neal", Domains: []int{1, 2}, Prior: 1, Context: []string{"center"}}, "O'Neal")
	add(&kb.Concept{ID: "person/kareem", Name: "Kareem Abdul-Jabbar", Domains: []int{1}, Prior: 1}, "Abdul-Jabbar")
	add(&kb.Concept{ID: "person/beyonce", Name: "Beyoncé", Domains: []int{2}, Prior: 1, Context: []string{"pelé"}})
	add(&kb.Concept{ID: "person/pele", Name: "Pelé", Domains: []int{1}, Prior: 1}, "PELÉ the king")
	add(&kb.Concept{ID: "city/istanbul", Name: "İstanbul", Domains: []int{3}, Prior: 1}, "Istanbul\u00a0City")
	return k
}

// adversarialTexts are the hand-made inputs of the property test and the
// seeds of the fuzz target.
var adversarialTexts = []string{
	"",
	"?!... ,,, ;",
	"     ",
	"   New    York   ",
	"Washington, D.C. or washington d c or WASHINGTON D C?",
	"Was George Washington born in Washington, D.C.?",
	"Shaquille O'Neal, O'Neal and Kareem Abdul-Jabbar (Abdul-Jabbar) at center",
	"Beyoncé met Pelé; BEYONCÉ met PELÉ the King",
	"İstanbul istanbul ISTANBUL İSTANBUL Istanbul\u00a0City istanbul\u2003city",
	// The longer alias fails on its last token: the prefix must still match.
	"New York City Football Association",
	"New York City Football",
	"New York State of mind, visit the city",
	// An alias ending at the last token, and starting at the first.
	"the governor of New York State",
	"New York City Football Club",
	// The same mention twice, adjacent and apart.
	"New York New York",
	"Michael Jordan and Michael Jordan play basketball with Kobe",
	"new new york york",
	"\xff New York \xfe\xc3",
	"pel\u00e9\u00a0the\u3000king of istanbul\u2003city",
	"Does Michael Jordan win more NBA championships than Kobe Bryant?",
}

func checkLinkMatchesReference(t *testing.T, l *Linker, text string) {
	t.Helper()
	got, ref := Tokenize(text), tokenizeReference(text)
	if len(got) != len(ref) {
		t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, ref)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("Tokenize(%q)[%d] = %q, reference %q", text, i, got[i], ref[i])
		}
	}
	if d := diffLinked(l.Link(text), linkReference(l, text)); d != "" {
		t.Fatalf("Link(%q): %s", text, d)
	}
}

// TestPropertyLinkMatchesReference holds Link to linkReference on every task
// text of the four datasets over six seeds, and on the adversarial texts
// against both knowledge bases, at the default and at a truncating TopC.
func TestPropertyLinkMatchesReference(t *testing.T) {
	var texts []string
	for seed := uint64(1); seed <= 6; seed++ {
		for _, name := range dataset.Names() {
			ds, err := dataset.ByName(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range ds.Tasks {
				texts = append(texts, task.Text)
			}
		}
	}
	texts = append(texts, adversarialTexts...)
	linked := 0
	for _, k := range []*kb.KB{kb.MustDefault(), adversarialKB(t)} {
		for _, topC := range []int{DefaultTopC, 2} {
			l := New(k)
			l.TopC = topC
			for _, text := range texts {
				checkLinkMatchesReference(t, l, text)
				linked += len(l.Link(text))
			}
		}
	}
	if linked < len(texts) {
		t.Errorf("only %d entities linked over %d texts: the property is vacuous", linked, len(texts))
	}
}

// TestLinkConcurrent: one Linker over a finished knowledge base serves
// concurrent Link calls — Publish fans DVE out over every core on that
// contract. Eight goroutines link the four datasets' texts and each must
// get the serial run's mentions, starts, candidate order and probability
// bits. Run it under -race.
func TestLinkConcurrent(t *testing.T) {
	var texts []string
	for _, ds := range dataset.All(1) {
		for _, task := range ds.Tasks {
			texts = append(texts, task.Text)
		}
	}
	l := New(kb.MustDefault())
	want := make([][]Entity, len(texts))
	for i, text := range texts {
		want[i] = l.Link(text)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range texts {
				i := (n + g*len(texts)/8) % len(texts) // each goroutine starts elsewhere
				if d := diffLinked(l.Link(texts[i]), want[i]); d != "" {
					t.Errorf("goroutine %d, text %d: %s", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
