// Package entitylink implements the entity-linking substrate of DOCS.
//
// The paper uses Wikifier to (1) detect entity mentions in a task's text and
// (2) rank, for each mention, its top-c candidate concepts with a probability
// distribution p_i. This package provides the same contract against the
// in-repo knowledge base: longest-match mention detection over the KB alias
// table, followed by candidate ranking that combines each concept's
// popularity prior with context-keyword overlap against the rest of the task
// text (the "semantic meaning in the text" signal of Section 3, Step 1).
package entitylink

import (
	"slices"
	"strings"

	"docs/internal/kb"
	"docs/internal/mathx"
)

// DefaultTopC is the number of candidate concepts kept per entity, matching
// the paper's Wikifier configuration (top-20).
const DefaultTopC = 20

// DefaultContextBoost is the multiplicative bonus per context keyword hit.
const DefaultContextBoost = 0.75

// Candidate is one possible concept a mention may link to, with the
// probability that this link is the correct one (p_{i,j} in the paper).
type Candidate struct {
	Concept *kb.Concept
	Prob    float64
}

// Entity is a detected mention together with its ranked candidates; it
// corresponds to e_i with distribution p_i in Section 3.
type Entity struct {
	// Mention is the surface form as it appeared in the text.
	Mention string
	// Start is the index of the mention's first token in the tokenized text.
	Start int
	// Candidates are the top-c concepts, in descending probability.
	Candidates []Candidate
}

// Linker detects and disambiguates entities against a knowledge base. Link
// only reads, so over a finished knowledge base one Linker serves any number
// of concurrent Link calls (TestLinkConcurrent).
type Linker struct {
	kb *kb.KB
	// TopC bounds the number of candidates kept per entity.
	TopC int
	// ContextBoost scales how much each context keyword hit increases a
	// candidate's score relative to its prior.
	ContextBoost float64
}

// New returns a Linker over the given knowledge base with default settings.
func New(k *kb.KB) *Linker {
	return &Linker{kb: k, TopC: DefaultTopC, ContextBoost: DefaultContextBoost}
}

// Link detects entity mentions in text and returns them with ranked,
// normalized candidate distributions. Detection is greedy longest-match over
// the KB alias table: at each token position the longest known alias wins
// and the scan resumes after it, so "Golden State Warriors" links as one
// entity rather than three. The match walks the KB's compiled alias index
// one token at a time, so a text costs its tokens plus the steps its
// matches take — nothing per window, nothing per alias in the KB.
func (l *Linker) Link(text string) []Entity {
	tokens := Tokenize(text)
	var bag []string // built at the first match

	var out []Entity
	for i := 0; i < len(tokens); {
		n, concepts := l.kb.LongestAlias(tokens[i:])
		if n == 0 {
			i++
			continue
		}
		if bag == nil {
			bag = contextBag(tokens)
		}
		out = append(out, l.disambiguate(strings.Join(tokens[i:i+n], " "), i, concepts, bag))
		i += n
	}
	return out
}

// disambiguate ranks the mention's candidates (in kb.Candidates' order, not
// modified) by prior × context fit and normalizes to a distribution,
// truncated to TopC.
func (l *Linker) disambiguate(mention string, start int, concepts []*kb.Concept, bag []string) Entity {
	topC := l.TopC
	if topC <= 0 {
		topC = DefaultTopC
	}
	scores := make([]float64, len(concepts))
	for j, c := range concepts {
		hits := 0
		for _, kw := range c.Context {
			if _, ok := slices.BinarySearch(bag, kw); ok {
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

// Tokenize splits text into normalized tokens using the same normalization
// as the KB alias table, so token runs compare directly against aliases.
func Tokenize(text string) []string { return kb.Tokenize(text) }

// contextBag builds the set of tokens available as disambiguation context:
// the tokens, sorted.
func contextBag(tokens []string) []string {
	bag := slices.Clone(tokens)
	slices.Sort(bag)
	return bag
}
