package kb

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"docs/internal/mathx"
	"docs/internal/model"
)

// aliasTableReference is the alias table exactly as it stood before the
// compiled index replaced it (PR 22): a map from normalized alias to concept
// IDs in insertion order, sorted on every Candidates call and walked in full
// on every MaxAliasWords call. It is kept verbatim as the oracle
// TestPropertyIndexMatchesReference holds the index to.
type aliasTableReference struct {
	concepts map[string]*Concept
	aliases  map[string][]string
}

func (k *aliasTableReference) addAlias(alias, conceptID string) {
	key := normalizeMentionReference(alias)
	for _, id := range k.aliases[key] {
		if id == conceptID {
			return
		}
	}
	k.aliases[key] = append(k.aliases[key], conceptID)
}

func (k *aliasTableReference) candidates(mention string) []*Concept {
	ids := k.aliases[normalizeMentionReference(mention)]
	if len(ids) == 0 {
		return nil
	}
	out := make([]*Concept, 0, len(ids))
	for _, id := range ids {
		out = append(out, k.concepts[id])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prior != out[j].Prior {
			return out[i].Prior > out[j].Prior
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (k *aliasTableReference) hasAlias(mention string) bool {
	_, ok := k.aliases[normalizeMentionReference(mention)]
	return ok
}

func (k *aliasTableReference) maxAliasWords() int {
	max := 1
	for a := range k.aliases {
		if n := strings.Count(a, " ") + 1; n > max {
			max = n
		}
	}
	return max
}

// normalizeMentionReference is NormalizeMention as it stood before the
// single-pass tokenizer: lowercase the whole string, map the runes into a
// builder, split it into fields and join them again.
func normalizeMentionReference(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '\'', r == '-':
			b.WriteRune(r)
		case r > 127: // keep non-ASCII letters (e.g. "Beyoncé", "Pelé")
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// bothTables feeds one stream of AddConcept / AddAlias calls to the KB and to
// the reference table.
type bothTables struct {
	t   *testing.T
	kb  *KB
	ref *aliasTableReference
}

func newBothTables(t *testing.T, domains []string) *bothTables {
	return &bothTables{
		t:  t,
		kb: New(model.MustDomainSet(domains)),
		ref: &aliasTableReference{
			concepts: make(map[string]*Concept),
			aliases:  make(map[string][]string),
		},
	}
}

func (b *bothTables) addConcept(c *Concept) {
	b.t.Helper()
	if err := b.kb.AddConcept(c); err != nil {
		b.t.Fatal(err)
	}
	b.ref.concepts[c.ID] = c
	b.ref.addAlias(c.Name, c.ID)
}

func (b *bothTables) addAlias(alias, id string) {
	b.t.Helper()
	if err := b.kb.AddAlias(alias, id); err != nil {
		b.t.Fatal(err)
	}
	b.ref.addAlias(alias, id)
}

// check holds the index to the reference on every probe: the same candidate
// pointers in the same order, the same HasAlias, the same MaxAliasWords, and
// LongestAlias agreeing with the reference's longest known window.
func (b *bothTables) check(probes []string) {
	b.t.Helper()
	if got, want := b.kb.MaxAliasWords(), b.ref.maxAliasWords(); got != want {
		b.t.Errorf("MaxAliasWords = %d, reference %d", got, want)
	}
	for _, p := range probes {
		got, want := b.kb.Candidates(p), b.ref.candidates(p)
		if len(got) != len(want) {
			b.t.Errorf("Candidates(%q): %d concepts, reference %d", p, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				b.t.Errorf("Candidates(%q)[%d] = %s, reference %s", p, i, got[i].ID, want[i].ID)
			}
		}
		if g, w := b.kb.HasAlias(p), b.ref.hasAlias(p); g != w {
			b.t.Errorf("HasAlias(%q) = %v, reference %v", p, g, w)
		}
		tokens := strings.Fields(normalizeMentionReference(p))
		wantN := 0
		for n := len(tokens); n >= 1 && wantN == 0; n-- {
			if b.ref.hasAlias(strings.Join(tokens[:n], " ")) {
				wantN = n
			}
		}
		gotN, concepts := b.kb.LongestAlias(tokens)
		if gotN != wantN {
			b.t.Errorf("LongestAlias(%q) = %d tokens, reference window %d", p, gotN, wantN)
			continue
		}
		ref := b.ref.candidates(strings.Join(tokens[:wantN], " "))
		if len(concepts) != len(ref) {
			b.t.Errorf("LongestAlias(%q): %d concepts, reference %d", p, len(concepts), len(ref))
			continue
		}
		for i := range ref {
			if concepts[i] != ref[i] {
				b.t.Errorf("LongestAlias(%q)[%d] = %s, reference %s", p, i, concepts[i].ID, ref[i].ID)
			}
		}
	}
}

// normalizationProbes are the strings the two normalizers are compared on,
// beside every alias of the catalogue: casing, punctuation, every kind of
// space, lowercasing that changes a rune's class or width, broken UTF-8.
var normalizationProbes = []string{
	"", " ", "?!.,;", "   a   b   ", "Washington, D.C.", "Shaquille O'Neal",
	"Kareem Abdul-Jabbar", "--'--", "Beyonc\u00e9", "PEL\u00c9", "\u0130stanbul", "\u212a2 K2",
	"a\u00a0b", "a\u0085b", "a\u2003b\u3000c\u1680d", "zero\u200bwidth", "tab\tnew\nline\rfeed\fv\vx",
	"\xff\xfe broken \xc3", "\u023a grows when lowered", "\u01c5 title case", "\u00df \u1e9e \u017f",
	"\u03a3\u03af\u03c3\u03c5\u03c6\u03bf\u03c2 \u03a3\u038a\u03a3\u03a5\u03a6\u039f\u03a3",
	"\u65e5\u672c\u8a9e \u30c6\u30ad\u30b9\u30c8", "ball \U0001f3c0 game", "UPPER lower MiXeD 123",
}

func TestPropertyTokenizeMatchesReference(t *testing.T) {
	probes := append([]string(nil), normalizationProbes...)
	for _, e := range catalog {
		probes = append(probes, e.name, strings.ToUpper(e.name), e.aliases, e.context)
	}
	r := mathx.NewRand(22)
	alphabet := []rune("aZ9 '-.,\t\u00a0\u2003\u00e9\u0130\u01c5\ufffd\u65e5")
	for i := 0; i < 2000; i++ {
		rs := make([]rune, r.Intn(24))
		for j := range rs {
			rs[j] = alphabet[r.Intn(len(alphabet))]
		}
		probes = append(probes, string(rs))
	}
	for _, p := range probes {
		want := normalizeMentionReference(p)
		if got := NormalizeMention(p); got != want {
			t.Errorf("NormalizeMention(%q) = %q, reference %q", p, got, want)
		}
		got, wantTokens := Tokenize(p), strings.Fields(want)
		if len(got) != len(wantTokens) {
			t.Errorf("Tokenize(%q) = %q, reference %q", p, got, wantTokens)
			continue
		}
		for i := range wantTokens {
			if got[i] != wantTokens[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, reference %q", p, i, got[i], wantTokens[i])
			}
		}
	}
}

// TestPropertyIndexMatchesReference replays the default catalogue, and then
// seeded random catalogues built to collide (few distinct words, tied
// priors, aliases that are prefixes of one another, repeated registrations),
// into the index and into the reference table, checking after every few
// insertions so an index that is only right once complete cannot pass.
func TestPropertyIndexMatchesReference(t *testing.T) {
	t.Run("catalogue", func(t *testing.T) {
		b := newBothTables(t, YahooDomains)
		var probes []string
		for i, e := range catalog {
			b.addConcept(&Concept{ID: e.id, Name: e.name, Domains: []int{i % len(YahooDomains)}, Prior: e.prior})
			probes = append(probes, e.name, e.name+" and more words", "the "+e.name)
			if e.aliases != "" {
				for _, a := range strings.Split(e.aliases, "|") {
					b.addAlias(a, e.id)
					probes = append(probes, a)
				}
			}
		}
		b.check(append(probes, normalizationProbes...))

		// The KB the server links against is this same stream.
		def := MustDefault()
		for _, p := range probes {
			got, want := def.Candidates(p), b.ref.candidates(p)
			if len(got) != len(want) {
				t.Fatalf("Default().Candidates(%q): %d concepts, reference %d", p, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Errorf("Default().Candidates(%q)[%d] = %s, reference %s", p, i, got[i].ID, want[i].ID)
				}
			}
		}
		if got, want := def.MaxAliasWords(), b.ref.maxAliasWords(); got != want {
			t.Errorf("Default().MaxAliasWords = %d, reference %d", got, want)
		}
	})

	words := []string{"north", "south", "new", "york", "city", "fc", "o'neal", "abdul-jabbar", "é"}
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := mathx.NewRand(seed)
			phrase := func() string {
				ws := make([]string, 1+r.Intn(4))
				for i := range ws {
					ws[i] = words[r.Intn(len(words))]
				}
				return strings.Join(ws, []string{" ", "  ", ", ", " - "}[r.Intn(4)])
			}
			b := newBothTables(t, []string{"a", "b", "c"})
			var ids, probes []string
			for step := 0; step < 120; step++ {
				if len(ids) == 0 || r.Intn(3) == 0 {
					id := fmt.Sprintf("c%02d", r.Intn(1000))
					if b.ref.concepts[id] != nil {
						continue
					}
					name := phrase()
					// Three prior levels, so most aliases hold ties.
					b.addConcept(&Concept{ID: id, Name: name, Domains: []int{r.Intn(3)}, Prior: float64(1+r.Intn(3)) / 4})
					ids = append(ids, id)
					probes = append(probes, name)
				} else {
					alias := phrase()
					b.addAlias(alias, ids[r.Intn(len(ids))])
					probes = append(probes, alias, alias+" "+phrase())
				}
				if step%10 == 9 {
					b.check(probes)
				}
			}
			b.check(probes)
		})
	}
}
