// Package kb implements the knowledge-base substrate of DOCS.
//
// The paper consults Freebase for concept→domain facts and organises the
// domain set around the 26 top-level Yahoo! Answers categories. Freebase is
// unavailable (retired, and this build is offline), so kb provides a curated
// in-memory knowledge base with the same interface contract the DVE module
// needs: a concept catalogue in which every concept carries an indicator
// vector over the 26 domains, and an alias table mapping surface forms
// (possibly ambiguously) to candidate concepts with popularity priors and
// context keywords for disambiguation.
package kb

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"docs/internal/model"
)

// YahooDomains is the 26-domain set D used throughout DOCS, mirroring the
// top-level Yahoo! Answers categories the paper maps Freebase onto.
var YahooDomains = []string{
	"Arts", "Beauty", "Business", "Cars", "Computers", "Electronics",
	"Dining", "Education", "Entertain", "Environment", "Family", "Food",
	"Games", "Health", "Home", "Local", "News", "Pets", "Politics",
	"Parenting", "Science", "SocialScience", "Society", "Sports",
	"Travel", "Products",
}

// Concept is a knowledge-base concept (a Freebase topic / Wikipedia page in
// the paper). Its Domains set induces the indicator vector h used by DVE.
// A concept must not change once AddConcept has accepted it, nor join a
// second KB: the alias index keeps it in (Prior, ID) order and the
// knowledge base keeps its indicator vector and keyword ids.
type Concept struct {
	// ID is the unique concept identifier (e.g. "person/michael_jordan").
	ID string
	// Name is the human-readable title.
	Name string
	// Domains lists the indices of the domains this concept relates to.
	Domains []int
	// Prior is the concept's popularity prior used by the entity linker to
	// rank candidates of an ambiguous mention. Higher is more popular.
	Prior float64
	// Context holds lowercase keywords that, when present near a mention,
	// make this concept the more plausible link target.
	Context []string

	// indicator is Indicator over the owning KB's domain set, computed once
	// by AddConcept; nil for a concept no KB holds.
	indicator  []float64
	contextIDs []int32 // Context, as the owning KB's keyword ids
}

// Indicator returns the concept's indicator vector h of size m: h_k = 1 iff
// the concept relates to domain k.
func (c *Concept) Indicator(m int) []float64 {
	h := make([]float64, m)
	for _, k := range c.Domains {
		if k >= 0 && k < m {
			h[k] = 1
		}
	}
	return h
}

// SharedIndicator returns the indicator vector the owning knowledge base
// computed when the concept was added, sized to that KB's domain set. Every
// caller gets the same slice and must not write to it; it is nil for a
// concept that was never added to a KB.
func (c *Concept) SharedIndicator() []float64 { return c.indicator }

// ContextIDs returns Context as the owning KB's keyword ids (KeywordID).
// Every caller gets the same slice and must not write to it.
func (c *Concept) ContextIDs() []int32 { return c.contextIDs }

// KB is an in-memory knowledge base: a domain set, a concept catalogue and
// an alias (surface form → candidate concepts) table. AddConcept and
// AddAlias are its only writers: a finished KB, such as kb.Default returns,
// serves any number of concurrent readers.
type KB struct {
	domains  *model.DomainSet
	concepts map[string]*Concept
	keywords map[string]int32 // every context keyword, interned to 0, 1, …
	// aliases is the alias table compiled into a trie over normalized
	// tokens. addAlias is its only writer, so it is never stale.
	aliases aliasNode
	// maxAliasWords is the depth of the trie, at least 1.
	maxAliasWords int
}

// aliasNode is one node of the alias trie: the path from the root spells an
// alias token by token.
type aliasNode struct {
	next map[string]*aliasNode
	// concepts are the candidates of the alias ending here, kept in
	// Candidates' order: descending prior, ties by ascending ID. That is a
	// strict total order over distinct concepts, so inserting each one at
	// its place yields the one sequence sorting would. Empty for a node
	// that is only a prefix of longer aliases.
	concepts []*Concept
}

// New returns an empty knowledge base over the given domain set.
func New(domains *model.DomainSet) *KB {
	return &KB{
		domains:       domains,
		concepts:      make(map[string]*Concept),
		keywords:      make(map[string]int32),
		maxAliasWords: 1,
	}
}

// Domains returns the knowledge base's domain set.
func (k *KB) Domains() *model.DomainSet { return k.domains }

// NumConcepts returns the number of concepts in the catalogue.
func (k *KB) NumConcepts() int { return len(k.concepts) }

// NumKeywords returns the number of distinct context keywords.
func (k *KB) NumKeywords() int { return len(k.keywords) }

// KeywordID returns a context keyword's id, below NumKeywords.
func (k *KB) KeywordID(word string) (int32, bool) {
	id, ok := k.keywords[word]
	return id, ok
}

// AddConcept inserts a concept and registers its name as an alias. The
// concept's domain indices must be valid and IDs must be unique.
func (k *KB) AddConcept(c *Concept) error {
	if c.ID == "" {
		return fmt.Errorf("kb: concept with empty ID")
	}
	if _, dup := k.concepts[c.ID]; dup {
		return fmt.Errorf("kb: duplicate concept %q", c.ID)
	}
	if c.indicator != nil {
		return fmt.Errorf("kb: concept %q already belongs to a knowledge base", c.ID)
	}
	if len(c.Domains) == 0 {
		return fmt.Errorf("kb: concept %q has no domains", c.ID)
	}
	m := k.domains.Size()
	for _, d := range c.Domains {
		if d < 0 || d >= m {
			return fmt.Errorf("kb: concept %q domain index %d out of range [0,%d)", c.ID, d, m)
		}
	}
	if !(c.Prior > 0) { // also rejects NaN, which no order could place
		return fmt.Errorf("kb: concept %q has non-positive prior %g", c.ID, c.Prior)
	}
	c.indicator = c.Indicator(m)
	for _, kw := range c.Context {
		if _, ok := k.keywords[kw]; !ok {
			k.keywords[kw] = int32(len(k.keywords))
		}
		c.contextIDs = append(c.contextIDs, k.keywords[kw])
	}
	k.concepts[c.ID] = c
	k.addAlias(c.Name, c)
	return nil
}

// AddAlias registers an additional surface form for an existing concept.
func (k *KB) AddAlias(alias, conceptID string) error {
	c, ok := k.concepts[conceptID]
	if !ok {
		return fmt.Errorf("kb: alias %q refers to unknown concept %q", alias, conceptID)
	}
	if strings.TrimSpace(alias) == "" {
		return fmt.Errorf("kb: empty alias for concept %q", conceptID)
	}
	k.addAlias(alias, c)
	return nil
}

func (k *KB) addAlias(alias string, c *Concept) {
	tokens := Tokenize(alias)
	node := &k.aliases
	for _, tok := range tokens {
		child := node.next[tok]
		if child == nil {
			if node.next == nil {
				node.next = make(map[string]*aliasNode)
			}
			child = &aliasNode{}
			node.next[tok] = child
		}
		node = child
	}
	at := len(node.concepts)
	for i, o := range node.concepts {
		if o == c {
			return
		}
		if at == len(node.concepts) && (c.Prior > o.Prior || c.Prior == o.Prior && c.ID < o.ID) {
			at = i
		}
	}
	node.concepts = append(node.concepts, nil)
	copy(node.concepts[at+1:], node.concepts[at:])
	node.concepts[at] = c
	if len(tokens) > k.maxAliasWords {
		k.maxAliasWords = len(tokens)
	}
}

// lookup returns the trie node the surface form's tokens spell, or nil.
func (k *KB) lookup(mention string) *aliasNode {
	node := &k.aliases
	for _, tok := range Tokenize(mention) {
		if node = node.next[tok]; node == nil {
			return nil
		}
	}
	return node
}

// Concept returns the concept with the given ID, or nil.
func (k *KB) Concept(id string) *Concept { return k.concepts[id] }

// Candidates returns the concepts a surface form may link to, ordered by
// descending prior (ties broken by ID for determinism). The slice is fresh;
// callers may reorder it.
func (k *KB) Candidates(mention string) []*Concept {
	node := k.lookup(mention)
	if node == nil || len(node.concepts) == 0 {
		return nil
	}
	return append([]*Concept(nil), node.concepts...)
}

// HasAlias reports whether the surface form is known to the alias table.
func (k *KB) HasAlias(mention string) bool {
	node := k.lookup(mention)
	return node != nil && len(node.concepts) > 0
}

// LongestAlias matches the longest registered alias that is a prefix of the
// token sequence (tokens as Tokenize yields them). It returns the alias's
// length in tokens and its candidates in Candidates' order, or 0 and nil if
// no alias starts at tokens[0]. The slice is the index's own: callers must
// not modify it. The cost is one trie step per matched token, whatever the
// size of the alias table.
func (k *KB) LongestAlias(tokens []string) (n int, concepts []*Concept) {
	node := &k.aliases
	for i, tok := range tokens {
		if node = node.next[tok]; node == nil {
			break
		}
		if len(node.concepts) > 0 {
			n, concepts = i+1, node.concepts
		}
	}
	return n, concepts
}

// MaxAliasWords returns the largest number of words in any registered alias
// (at least 1): the bound on a longest-match window.
func (k *KB) MaxAliasWords() int { return k.maxAliasWords }

// NormalizeMention lowercases a surface form, strips punctuation other than
// intra-word apostrophes and hyphens, and collapses whitespace, so alias
// lookup is insensitive to casing, spacing and punctuation ("Washington,
// D.C." and "washington d c" normalize identically). It is one pass over
// the runes into one copy of the text.
func NormalizeMention(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	gap := false // a separator since the last kept rune
	for i := 0; i < len(s); {
		r, size := rune(s[i]), 1 // an ASCII byte is its rune, lowered here
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			r = unicode.ToLower(r) // may be ASCII: 'İ' lowers to 'i'
		} else if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		i += size
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '\'', r == '-',
			r > 127 && !unicode.IsSpace(r): // keep non-ASCII letters (e.g. "Beyoncé", "Pelé")
			if gap && b.Len() > 0 {
				b.WriteByte(' ')
			}
			gap = false
			if r < utf8.RuneSelf {
				b.WriteByte(byte(r))
			} else {
				b.WriteRune(r)
			}
		default:
			gap = true
		}
	}
	return b.String()
}

// Tokenize splits a text into the words of its normalized form. The tokens
// share NormalizeMention's one copy of the text.
func Tokenize(s string) []string { return AppendTokens(nil, s) }

// AppendTokens appends Tokenize(s)'s tokens to dst.
func AppendTokens(dst []string, s string) []string {
	norm := NormalizeMention(s)
	for norm != "" {
		i := strings.IndexByte(norm, ' ')
		if i < 0 {
			return append(dst, norm)
		}
		dst, norm = append(dst, norm[:i]), norm[i+1:]
	}
	return dst
}
