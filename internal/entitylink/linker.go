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
// of concurrent calls (TestLinkConcurrent), each LinkInto with its own
// Workspace.
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

// Workspace is the memory linking reuses from text to text. The context a
// candidate is scored against is the text's tokens as a bitset over the
// knowledge base's keyword ids. Its zero value is ready.
type Workspace struct {
	tokens []string
	marks  []uint64 // bit id: keyword id is one of the text's tokens
	marked []int32  // the ids marked, for clearing
	scores []float64
	order  []int
	cands  []Candidate
	ents   []Entity
}

// Link detects entity mentions in text and returns them with ranked,
// normalized candidate distributions. Detection is greedy longest-match over
// the KB alias table: at each token position the longest known alias wins
// and the scan resumes after it, so "Golden State Warriors" links as one
// entity rather than three. The match walks the KB's compiled alias index
// one token at a time, so a text costs its tokens plus the steps its
// matches take — nothing per window, nothing per alias in the KB.
func (l *Linker) Link(text string) []Entity {
	return l.link(new(Workspace), text, true)
}

// LinkInto is Link in ws's memory and without mention strings (Mention is
// empty); the result is valid until ws links again.
func (l *Linker) LinkInto(ws *Workspace, text string) []Entity {
	return l.link(ws, text, false)
}

func (l *Linker) link(ws *Workspace, text string, mentions bool) []Entity {
	ws.tokens = kb.AppendTokens(ws.tokens[:0], text)
	ws.cands, ws.ents = ws.cands[:0], ws.ents[:0]
	tokens := ws.tokens
	for i := 0; i < len(tokens); {
		n, concepts := l.kb.LongestAlias(tokens[i:])
		if n == 0 {
			i++
			continue
		}
		if len(ws.ents) == 0 {
			ws.mark(l.kb, tokens)
		}
		var mention string
		if mentions {
			mention = strings.Join(tokens[i:i+n], " ")
		}
		l.disambiguate(ws, mention, i, concepts)
		i += n
	}
	ws.unmark()
	return ws.ents
}

// mark sets the bit of every token that is a context keyword.
func (ws *Workspace) mark(k *kb.KB, tokens []string) {
	if n := (k.NumKeywords() + 63) / 64; len(ws.marks) < n {
		ws.marks = make([]uint64, n)
	}
	for _, tok := range tokens {
		if id, ok := k.KeywordID(tok); ok {
			ws.marks[id/64] |= 1 << (id % 64)
			ws.marked = append(ws.marked, id)
		}
	}
}

// hits counts c's context keywords among the marked tokens.
func (ws *Workspace) hits(c *kb.Concept) int {
	n := 0
	for _, id := range c.ContextIDs() {
		n += int(ws.marks[id/64] >> (id % 64) & 1)
	}
	return n
}

// unmark clears what mark set.
func (ws *Workspace) unmark() {
	for _, id := range ws.marked {
		ws.marks[id/64] = 0
	}
	ws.marked = ws.marked[:0]
}

// disambiguate ranks the mention's candidates (in kb.Candidates' order, not
// modified) by prior × context fit and appends them to ws as one entity,
// normalized to a distribution and truncated to TopC.
func (l *Linker) disambiguate(ws *Workspace, mention string, start int, concepts []*kb.Concept) {
	topC := l.TopC
	if topC <= 0 {
		topC = DefaultTopC
	}
	scores := ws.scores[:0]
	for _, c := range concepts {
		scores = append(scores, c.Prior*(1+l.ContextBoost*float64(ws.hits(c))))
	}
	ws.scores = scores
	ws.order = slices.Grow(ws.order[:0], len(scores))[:len(scores)]
	order := mathx.TopKInto(ws.order, scores, topC)
	var total float64
	for _, j := range order {
		total += scores[j]
	}
	lo := len(ws.cands)
	for _, j := range order {
		ws.cands = append(ws.cands, Candidate{Concept: concepts[j], Prob: scores[j] / total})
	}
	hi := len(ws.cands) // capped: the slab may grow into a new array behind it
	ws.ents = append(ws.ents, Entity{Mention: mention, Start: start, Candidates: ws.cands[lo:hi:hi]})
}

// Tokenize splits text into normalized tokens using the same normalization
// as the KB alias table, so token runs compare directly against aliases.
func Tokenize(text string) []string { return kb.Tokenize(text) }
