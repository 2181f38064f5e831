package core

import (
	"bytes"
	"compress/flate"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"docs/internal/mathx"
)

// token is one step of a DEFLATE stream: a literal byte, or a copy of
// length bytes from dist back.
type token struct {
	lit          byte
	length, dist int
}

// referenceTokens is the pinned writer's matching, one position at a time
// and stated the way deflate.go's comment states it: at each position the
// longest match of 3 to 258 among the 32 most recent earlier positions with
// the same hash inside the window, the nearest of equals; a literal when
// none reaches 3.
func referenceTokens(body []byte) []token {
	byHash := map[uint32][]int{} // every position with three bytes left, ascending
	for p := 0; p+3 <= len(body); p++ {
		h := hash3(body[p:])
		byHash[h] = append(byHash[h], p)
	}
	var tokens []token
	for pos := 0; pos < len(body); {
		best, dist := 0, 0
		if limit := min(258, len(body)-pos); limit >= 3 {
			same := byHash[hash3(body[pos:])]
			earlier := same[:sort.SearchInts(same, pos)]
			for i := len(earlier) - 1; i >= 0 && i >= len(earlier)-32 && pos-earlier[i] <= 32768; i-- {
				q, n := earlier[i], 0
				for n < limit && body[q+n] == body[pos+n] {
					n++
				}
				if n > best {
					best, dist = n, pos-q
				}
			}
		}
		if best < 3 {
			tokens = append(tokens, token{lit: body[pos]})
			pos++
			continue
		}
		tokens = append(tokens, token{length: best, dist: dist})
		pos += best
	}
	return tokens
}

// bitWriter writes a DEFLATE bit stream: values first bit lowest, Huffman
// codes most significant bit first, zero bits up to a byte at the end.
type bitWriter struct {
	out  []byte
	acc  uint64
	nacc uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	for i := uint(0); i < n; i++ {
		w.acc |= (v >> i & 1) << w.nacc
		if w.nacc++; w.nacc == 8 {
			w.out, w.acc, w.nacc = append(w.out, byte(w.acc)), 0, 0
		}
	}
}

func (w *bitWriter) code(c uint64, n uint) {
	for i := n; i > 0; i-- {
		w.bits(c>>(i-1)&1, 1)
	}
}

func (w *bitWriter) bytes() []byte {
	if w.nacc > 0 {
		w.out, w.acc, w.nacc = append(w.out, byte(w.acc)), 0, 0
	}
	return w.out
}

// The RFC 1951 tables (section 3.2.5): each length and distance code's
// base and extra bits.
var (
	lengthBase  = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = []uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = []int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = []uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// fixedSymbol writes a literal/length symbol's fixed Huffman code.
func (w *bitWriter) fixedSymbol(sym int) {
	switch {
	case sym < 144:
		w.code(uint64(0x30+sym), 8)
	case sym < 256:
		w.code(uint64(0x190+sym-144), 9)
	case sym < 280:
		w.code(uint64(sym-256), 7)
	default:
		w.code(uint64(0xc0+sym-280), 8)
	}
}

// fixedTokens writes tokens in the fixed Huffman codes, a match as the
// last code whose base it reaches.
func (w *bitWriter) fixedTokens(tokens []token) {
	for _, tk := range tokens {
		if tk.length == 0 {
			w.fixedSymbol(int(tk.lit))
			continue
		}
		l := sort.SearchInts(lengthBase, tk.length+1) - 1
		w.fixedSymbol(257 + l)
		w.bits(uint64(tk.length-lengthBase[l]), lengthExtra[l])
		d := sort.SearchInts(distBase, tk.dist+1) - 1
		w.code(uint64(d), 5)
		w.bits(uint64(tk.dist-distBase[d]), distExtra[d])
	}
}

// fixedBlock writes one fixed-code block of tokens, final or not.
func (w *bitWriter) fixedBlock(tokens []token, final bool) {
	if final {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
	w.bits(1, 2) // BTYPE 01
	w.fixedTokens(tokens)
	w.fixedSymbol(256)
}

// spelling is how a test stream departs from the writer's rules; the zero
// value departs from none.
type spelling struct {
	swap     bool // the shortest and the longest literal/length code trade lengths: a complete tree, not the writer's
	fullHLIT bool // HLIT is 286, not the last non-zero length
	noRuns   bool // every length is spelled as itself, with no 16, 17 or 18
}

// referenceLengths is package-merge as deflate.go's comment states it,
// item by item: the used symbols in order of count, then symbol; each level
// merges them with the pairs of the level below, a symbol ahead of a pair of
// equal weight; a symbol's length is how often it occurs in the top level's
// first 2n−2 items, pairs opened down to their symbols. A lone used symbol
// has length 1.
func referenceLengths(counts []int, limit int) []int {
	type item struct {
		weight int
		syms   []int // every symbol the item holds, once a level
	}
	var leaves []item
	for sym, c := range counts {
		if c > 0 {
			leaves = append(leaves, item{c, []int{sym}})
		}
	}
	sort.SliceStable(leaves, func(i, j int) bool { return leaves[i].weight < leaves[j].weight })
	lens := make([]int, len(counts))
	if len(leaves) == 1 {
		lens[leaves[0].syms[0]] = 1
	}
	if len(leaves) < 2 {
		return lens
	}
	list := leaves
	for level := 1; level < limit; level++ {
		merged := append([]item(nil), leaves...)
		for i := 0; i+1 < len(list); i += 2 {
			merged = append(merged, item{list[i].weight + list[i+1].weight, append(append([]int(nil), list[i].syms...), list[i+1].syms...)})
		}
		sort.SliceStable(merged, func(i, j int) bool { return merged[i].weight < merged[j].weight })
		list = merged
	}
	for _, it := range list[:2*len(leaves)-2] {
		for _, sym := range it.syms {
			lens[sym]++
		}
	}
	return lens
}

// referenceCodes is RFC 1951's canonical code for each length (section
// 3.2.2), most significant bit first.
func referenceCodes(lens []int) []int {
	count, next := make([]int, 16), make([]int, 16)
	for _, l := range lens {
		if l > 0 {
			count[l]++
		}
	}
	for l, code := 1, 0; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]int, len(lens))
	for sym, l := range lens {
		if l > 0 {
			codes[sym] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamicBlock writes tokens as one dynamic-Huffman block by the rules
// deflate.go's comment states, departing from them as sp says.
func (w *bitWriter) dynamicBlock(tokens []token, final bool, sp spelling) {
	litCount, distCount := make([]int, 286), make([]int, 30)
	litCount[256] = 1
	for _, tk := range tokens {
		if tk.length == 0 {
			litCount[tk.lit]++
			continue
		}
		litCount[257+sort.SearchInts(lengthBase, tk.length+1)-1]++
		distCount[sort.SearchInts(distBase, tk.dist+1)-1]++
	}
	lit, dist := referenceLengths(litCount, 15), referenceLengths(distCount, 15)
	if sp.swap {
		short, long := 256, 256
		for sym, l := range lit {
			if l > 0 && l < lit[short] {
				short = sym
			}
			if l > lit[long] {
				long = sym
			}
		}
		lit[short], lit[long] = lit[long], lit[short]
	}
	hlit, hdist := 257, 1
	for sym, l := range lit {
		if l > 0 {
			hlit = max(hlit, sym+1)
		}
	}
	for sym, l := range dist {
		if l > 0 {
			hdist = sym + 1
		}
	}
	if sp.fullHLIT {
		hlit = 286
	}
	seq := append(append([]int(nil), lit[:hlit]...), dist[:hdist]...)
	type run struct{ sym, extra int }
	var runs []run
	for i := 0; i < len(seq); {
		v, r := seq[i], 1
		for i+r < len(seq) && seq[i+r] == v {
			r++
		}
		i += r
		switch {
		case sp.noRuns:
		case v == 0:
			for ; r >= 11; r -= min(r, 138) {
				runs = append(runs, run{18, min(r, 138) - 11})
			}
			if r >= 3 {
				runs, r = append(runs, run{17, r - 3}), 0
			}
		default:
			runs, r = append(runs, run{v, 0}), r-1
			for ; r >= 3; r -= min(r, 6) {
				runs = append(runs, run{16, min(r, 6) - 3})
			}
		}
		for ; r > 0; r-- {
			runs = append(runs, run{v, 0})
		}
	}
	clCount := make([]int, 19)
	for _, r := range runs {
		clCount[r.sym]++
	}
	cl := referenceLengths(clCount, 7)
	hclen := 4
	for i, sym := range clOrder {
		if cl[sym] > 0 {
			hclen = max(hclen, i+1)
		}
	}
	if final {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
	w.bits(2, 2) // BTYPE 10
	w.bits(uint64(hlit-257), 5)
	w.bits(uint64(hdist-1), 5)
	w.bits(uint64(hclen-4), 4)
	for _, sym := range clOrder[:hclen] {
		w.bits(uint64(cl[sym]), 3)
	}
	clCodes := referenceCodes(cl)
	for _, r := range runs {
		w.code(uint64(clCodes[r.sym]), uint(cl[r.sym]))
		w.bits(uint64(r.extra), map[int]uint{16: 2, 17: 3, 18: 7}[r.sym])
	}
	litCodes, distCodes := referenceCodes(lit), referenceCodes(dist)
	for _, tk := range tokens {
		if tk.length == 0 {
			w.code(uint64(litCodes[tk.lit]), uint(lit[tk.lit]))
			continue
		}
		l := sort.SearchInts(lengthBase, tk.length+1) - 1
		w.code(uint64(litCodes[257+l]), uint(lit[257+l]))
		w.bits(uint64(tk.length-lengthBase[l]), lengthExtra[l])
		d := sort.SearchInts(distBase, tk.dist+1) - 1
		w.code(uint64(distCodes[d]), uint(dist[d]))
		w.bits(uint64(tk.dist-distBase[d]), distExtra[d])
	}
	w.code(uint64(litCodes[256]), uint(lit[256]))
}

// dynamicStream writes tokens in dynamic-Huffman blocks of every tokens,
// the final block holding the rest (one empty block for no tokens), by the
// writer's rules but for sp.
func dynamicStream(tokens []token, every int, sp spelling) *bitWriter {
	w := new(bitWriter)
	for ; len(tokens) > every; tokens = tokens[every:] {
		w.dynamicBlock(tokens[:every], false, sp)
	}
	w.dynamicBlock(tokens, true, sp)
	return w
}

// referenceDeflate is the stream the pinned writer must write for body:
// referenceTokens' tokens in dynamic-Huffman blocks of 16,384.
func referenceDeflate(body []byte) []byte {
	return dynamicStream(referenceTokens(body), 16384, spelling{}).bytes()
}

// deflateStream is the pinned writer's stream for body in one pass.
func deflateStream(body []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	d.reset(nil)
	d.write(body, true)
	return d.out
}

// advancedStream is the pinned writer's stream for body advanced as the
// body grows, in the steps step draws, each of 1 or more bytes.
func advancedStream(body []byte, step func() int) []byte {
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	d.reset(nil)
	for n := 0; n < len(body); n += step() {
		d.write(body[:n], false)
	}
	d.write(body, true)
	return d.out
}

// inflate is compress/flate's reading of stream.
func inflate(t testing.TB, stream []byte) []byte {
	t.Helper()
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// flateStream is compress/flate's writer's stream for body at level.
func flateStream(t testing.TB, body []byte, level int) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// streamBlock is one dynamic-Huffman block of a stream as readBlocks finds
// it: how many tokens it holds, and each of its three codes' lengths and
// how often the block uses each symbol.
type streamBlock struct {
	tokens                 int
	lit, dist, cl          []int
	litUse, distUse, clUse []int
}

// readBlocks reads a stream of dynamic-Huffman blocks back to its tokens,
// failing t on any other block.
func readBlocks(t testing.TB, stream []byte) ([]token, []streamBlock) {
	t.Helper()
	pos := 0
	bits := func(n uint) int {
		v := 0
		for i := uint(0); i < n; i++ {
			if pos/8 >= len(stream) {
				t.Fatal("the stream ends inside a block")
			}
			v |= int(stream[pos/8]>>(pos%8)&1) << i
			pos++
		}
		return v
	}
	decoder := func(lens, use []int) func() int {
		codes, bySpelling := referenceCodes(lens), map[[2]int]int{}
		for sym, l := range lens {
			if l > 0 {
				bySpelling[[2]int{l, codes[sym]}] = sym
			}
		}
		return func() int {
			for n, code := 1, 0; n <= 15; n++ {
				code = code<<1 | bits(1)
				if sym, ok := bySpelling[[2]int{n, code}]; ok {
					use[sym]++
					return sym
				}
			}
			t.Fatal("no code of the block spells the stream's next bits")
			return 0
		}
	}
	var tokens []token
	var blocks []streamBlock
	for final := 0; final == 0; {
		final = bits(1)
		if btype := bits(2); btype != 2 {
			t.Fatalf("block %d has BTYPE %d, not a dynamic-Huffman block", len(blocks), btype)
		}
		hlit, hdist, hclen := bits(5)+257, bits(5)+1, bits(4)+4
		b := streamBlock{cl: make([]int, 19), litUse: make([]int, hlit), distUse: make([]int, hdist), clUse: make([]int, 19)}
		for _, sym := range clOrder[:hclen] {
			b.cl[sym] = bits(3)
		}
		cl := decoder(b.cl, b.clUse)
		var seq []int
		for len(seq) < hlit+hdist {
			switch sym := cl(); sym {
			case 16:
				for n := bits(2) + 3; n > 0; n-- {
					seq = append(seq, seq[len(seq)-1])
				}
			case 17:
				seq = append(seq, make([]int, bits(3)+3)...)
			case 18:
				seq = append(seq, make([]int, bits(7)+11)...)
			default:
				seq = append(seq, sym)
			}
		}
		b.lit, b.dist = seq[:hlit], seq[hlit:]
		lit, dist := decoder(b.lit, b.litUse), decoder(b.dist, b.distUse)
		for sym := lit(); sym != 256; sym = lit() {
			if b.tokens++; sym < 256 {
				tokens = append(tokens, token{lit: byte(sym)})
				continue
			}
			l := sym - 257
			length := lengthBase[l] + bits(lengthExtra[l])
			d := dist()
			tokens = append(tokens, token{length: length, dist: distBase[d] + bits(distExtra[d])})
		}
		blocks = append(blocks, b)
	}
	if (pos+7)/8 != len(stream) {
		t.Fatalf("the final block ends at bit %d of a %d-byte stream", pos, len(stream))
	}
	return tokens, blocks
}

// bindingLimit reports whether a code of at most limit bits must spend
// more on use than the best code without one.
func bindingLimit(use []int, limit int) bool {
	cost := func(lens []int) (bits int) {
		for sym, n := range use {
			bits += n * lens[sym]
		}
		return bits
	}
	return cost(referenceLengths(use, limit)) > cost(referenceLengths(use, 64))
}

// noMatchBody is n bytes no three of which in a row repeat, so the writer
// finds no match in them: the high and low byte of 0, 1, 2, ….
func noMatchBody(n int) []byte {
	b := make([]byte, 0, n+1)
	for i := 0; len(b) < n; i++ {
		b = append(b, byte(i>>8), byte(i))
	}
	return b[:n]
}

// unitsBody is a body whose second block the test chooses: a first block of
// 16,384 literals — bytes from 64 up, no three in a row repeated, so the
// writer finds no match in them — then, for each byte x of lits (all below
// 64), x as a literal and a copy of three bytes of the first block, at a
// position no earlier copy started at and with a first two bytes no earlier
// copy after x began with. So the second block's literals are lits' bytes,
// its one length symbol is 257 (a match of 3), once a literal, and it ends
// the body.
func unitsBody(r *mathx.Rand, lits []byte) []byte {
	b, seen := make([]byte, 0, 1<<14+4*len(lits)), map[[3]byte]bool{}
	for len(b) < 1<<14 {
		c := byte(128 + r.Intn(128))
		if n := len(b); n >= 2 && seen[[3]byte{b[n-2], b[n-1], c}] {
			continue
		} else if n >= 2 {
			seen[[3]byte{b[n-2], b[n-1], c}] = true
		}
		b = append(b, c)
	}
	s := 0
	for _, x := range lits {
		for seen[[3]byte{x, b[s], b[s+1]}] {
			s++
		}
		seen[[3]byte{x, b[s], b[s+1]}] = true
		b = append(b, x, b[s], b[s+1], b[s+2])
		s++
	}
	return b
}

// limitBodies are two unitsBody bodies whose second block forces the
// writer's length limits. In the first, literal counts 1, 2, 3, 5, …, 1,597
// — with the end of block's 1, Fibonacci numbers — make the best
// literal/length code 16 bits deep. In the second, each literal's count is
// 2^(13−ℓ) for the length ℓ it is meant to get: one of 2 bits, one of 4, six
// of 8, nine of 7, fifteen of 10, twenty-three of 13 (and the end of block)
// and thirty-nine of 9, each length's bytes spread evenly over the byte
// values, so no four in a row share one. With the match symbol's 1 twice
// more (the two distance symbols' lengths) and three 18s, the code-length
// symbols occur 1, 1, 3, 3, 6, 9, 15, 24 and 39 times, and their best code
// is 8 bits deep.
func limitBodies(r *mathx.Rand) (fifteen, seven []byte) {
	var lits []byte
	for x, f := range []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597} {
		lits = append(lits, bytes.Repeat([]byte{byte(x)}, f)...)
	}
	shuffle := func(b []byte) []byte {
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return b
	}
	fifteen = unitsBody(r, shuffle(lits))
	type place struct {
		at     float64
		length int
	}
	var places []place
	for _, g := range [][2]int{{1, 2}, {1, 4}, {6, 8}, {9, 7}, {15, 10}, {23, 13}, {39, 9}} {
		for k := 0; k < g[0]; k++ {
			places = append(places, place{(float64(k) + 0.5) / float64(g[0]), g[1]})
		}
	}
	sort.SliceStable(places, func(i, j int) bool { return places[i].at < places[j].at })
	lits = lits[:0]
	for x, p := range places {
		lits = append(lits, bytes.Repeat([]byte{byte(x)}, 1<<(13-p.length))...)
	}
	return fifteen, unitsBody(r, shuffle(lits))
}

// TestDeflateMatchesReference: the pinned writer writes, byte for byte, the
// stream its rules define — referenceTokens' matches, which a reading of the
// stream gives back, coded by the reference dynamic-Huffman emitter —
// whether it is given the body in one pass or advanced as the body grows in
// uneven steps; compress/flate's reader reads every stream back to its
// body, every block but the last holds
// 16,384 tokens and no code is longer than 15 bits (7 for the code-length
// code). The cases: bodies of 0 to 3 bytes, runs of 258 and 259 bytes (one
// distance symbol), random bytes, a body with no match and bodies with no
// match of 16,384 and 16,385 tokens, a body over 32 KiB that repeats itself
// at exactly the window's reach and one that repeats one byte beyond it
// (the ring wraps), a body over 64 KiB, the two limitBodies, whose limits
// must bind, and the four datasets' publications.
func TestDeflateMatchesReference(t *testing.T) {
	r := mathx.NewRand(44)
	random := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return b
	}
	window := random(32768)
	fifteen, seven := limitBodies(r)
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {7},
		"two bytes":        {7, 7},
		"three bytes":      {7, 7, 7},
		"run of 258":       bytes.Repeat([]byte{'a'}, 258),
		"run of 259":       bytes.Repeat([]byte{'a'}, 259),
		"random":           random(5000),
		"no match":         noMatchBody(3000),
		"16,384 tokens":    noMatchBody(16384),
		"16,385 tokens":    noMatchBody(16385),
		"repeat at 32,768": append(append([]byte(nil), window...), window[:1000]...),
		"repeat at 32,769": append(append(append([]byte(nil), window...), 'x'), window[:1000]...),
		"templates over 64 KiB": []byte(strings.Repeat(
			"Q. Is the Nile longer than the Amazon? yes no 0.75 0.25 | ", 1200) + string(random(3000))),
		"15-bit limit": fifteen,
		"7-bit limit":  seven,
	}
	names, sets, m := datasetPublications(t)
	for i, tasks := range sets {
		cases[names[i]] = mustEncodeBinaryPublication(t, tasks, m)[len(publicationMagic):]
	}
	for name, body := range cases {
		want := referenceDeflate(body)
		got := deflateStream(body)
		tokens, blocks := readBlocks(t, got)
		if !slices.Equal(tokens, referenceTokens(body)) {
			t.Errorf("%s: the writer's %d tokens differ from referenceTokens' %d", name, len(tokens), len(referenceTokens(body)))
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the writer writes %d bytes that differ from the reference's %d", name, len(got), len(want))
			continue
		}
		if adv := advancedStream(body, func() int { return 1 + r.Intn(700) }); !bytes.Equal(adv, want) {
			t.Errorf("%s: advanced as the body grows, the writer writes %d bytes that differ from one pass's %d", name, len(adv), len(want))
		}
		if got := inflate(t, want); !bytes.Equal(got, body) {
			t.Errorf("%s: compress/flate reads the stream back to %d bytes that differ from the %d-byte body", name, len(got), len(body))
		}
		for i, b := range blocks {
			if b.tokens != 16384 && i < len(blocks)-1 || b.tokens > 16384 {
				t.Errorf("%s: block %d of %d holds %d tokens", name, i, len(blocks), b.tokens)
			}
			if slices.Max(b.lit) > 15 || slices.Max(b.dist) > 15 || slices.Max(b.cl) > 7 {
				t.Errorf("%s: block %d has codes of %d, %d and %d bits", name, i, slices.Max(b.lit), slices.Max(b.dist), slices.Max(b.cl))
			}
		}
		t.Logf("%-22s %6d B → %6d B in %d blocks", name, len(body), len(want), len(blocks))
	}
	for name, want := range map[string]int{"16,384 tokens": 1, "16,385 tokens": 2, "15-bit limit": 2, "7-bit limit": 2} {
		if _, blocks := readBlocks(t, deflateStream(cases[name])); len(blocks) != want {
			t.Errorf("%s: %d blocks, want %d", name, len(blocks), want)
		}
	}
	_, blocks := readBlocks(t, deflateStream(fifteen))
	if b := blocks[1]; !bindingLimit(b.litUse, 15) || slices.Max(b.lit) != 15 {
		t.Errorf("the 15-bit body's literal/length code is %d bits deep, and the limit binds: %v", slices.Max(b.lit), bindingLimit(b.litUse, 15))
	}
	_, blocks = readBlocks(t, deflateStream(seven))
	if b := blocks[1]; !bindingLimit(b.clUse, 7) || slices.Max(b.cl) != 7 {
		t.Errorf("the 7-bit body's code-length code is %d bits deep, and the limit binds: %v", slices.Max(b.cl), bindingLimit(b.clUse, 7))
	}
}

// FuzzDeflateWriter holds the pinned writer to its reference on arbitrary
// bodies: the stream is referenceDeflate's, advanced as the body grows (in
// steps the body's own bytes draw) it is the one-pass stream, and
// compress/flate reads it back to the body.
func FuzzDeflateWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("Q. Is the Nile longer than the Amazon? Q. Is the Nile older than the Amazon?"))
	f.Add(bytes.Repeat([]byte{'a'}, 600))
	f.Add(noMatchBody(700))
	f.Fuzz(func(t *testing.T, body []byte) {
		want := referenceDeflate(body)
		got := deflateStream(body)
		if !bytes.Equal(got, want) {
			t.Fatalf("the writer writes %d bytes that differ from the reference's %d", len(got), len(want))
		}
		i := 0
		step := func() int { i++; return 1 + int(body[i%len(body)]) }
		if adv := advancedStream(body, step); !bytes.Equal(adv, got) {
			t.Fatalf("advanced as the body grows, the writer writes %d bytes that differ from one pass's %d", len(adv), len(got))
		}
		if back := inflate(t, got); !bytes.Equal(back, body) {
			t.Fatalf("compress/flate reads the stream back to %d bytes, not the %d-byte body", len(back), len(body))
		}
	})
}

// stored is body as one final stored block (BTYPE 00): the same body, not
// the writer's stream. body must be under 64 KiB.
func stored(body []byte) []byte {
	var w bitWriter
	w.bits(1, 1)
	w.bits(0, 2)
	out := w.bytes()
	n := uint16(len(body))
	out = append(out, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
	return append(out, body...)
}

// fixedCodes is the writer's tokens for body in one fixed-code block
// (BTYPE 01), as DPC3 logged them: the same body, not DPC4's stream.
func fixedCodes(body []byte) []byte {
	var w bitWriter
	w.fixedBlock(referenceTokens(body), true)
	return w.bytes()
}

// respelled is the writer's tokens for body by the writer's rules but for
// sp, in blocks of every tokens.
func respelled(body []byte, every int, sp spelling) []byte {
	return dynamicStream(referenceTokens(body), every, sp).bytes()
}

// shorterMatch is the writer's tokens for body with its first match of 4
// or more cut one byte short and the byte written as a literal: the same
// body by another stream.
func shorterMatch(t testing.TB, body []byte) []byte {
	t.Helper()
	tokens := referenceTokens(body)
	for i, tk := range tokens {
		if tk.length > 3 {
			pos := 0
			for _, prev := range tokens[:i] {
				pos += max(1, prev.length)
			}
			cut := append(append([]token(nil), tokens[:i]...),
				token{length: tk.length - 1, dist: tk.dist}, token{lit: body[pos+tk.length-1]})
			cut = append(cut, tokens[i+1:]...)
			return dynamicStream(cut, 16384, spelling{}).bytes()
		}
	}
	t.Fatal("the body has no match of 4 or more bytes")
	return nil
}

// paddedWithOnes is stream with the padding bits after its final block set.
func paddedWithOnes(t testing.TB, stream []byte, padding uint) []byte {
	t.Helper()
	if padding == 0 {
		t.Fatal("the stream ends on a byte boundary: it has no padding bits")
	}
	out := append([]byte(nil), stream...)
	out[len(out)-1] |= byte(0xff << (8 - padding))
	return out
}

// paddingBits is how many zero bits end the writer's stream for body.
func paddingBits(body []byte) uint {
	return (8 - dynamicStream(referenceTokens(body), 16384, spelling{}).nacc) % 8
}
