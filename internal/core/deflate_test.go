package core

import (
	"bytes"
	"compress/flate"
	"io"
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

// referenceDeflate is the stream the pinned writer must write for body.
func referenceDeflate(body []byte) []byte {
	var w bitWriter
	w.fixedBlock(referenceTokens(body), true)
	return w.bytes()
}

// deflateStream is the pinned writer's stream for body in one pass.
func deflateStream(body []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	d.reset(nil)
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

// TestDeflateMatchesReference: the pinned writer writes, byte for byte, the
// stream its rules define — referenceTokens' matches in the fixed codes —
// whether it is given the body in one pass or advanced as the body grows in
// uneven steps, and compress/flate's reader reads every stream back to its
// body. The cases: bodies of 0 to 3 bytes, runs of 258 and 259 bytes,
// random bytes, a body over 32 KiB that repeats itself at exactly the
// window's reach and one that repeats one byte beyond it (the ring wraps),
// a body over 64 KiB, and the four datasets' publications.
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
	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {7},
		"two bytes":        {7, 7},
		"three bytes":      {7, 7, 7},
		"run of 258":       bytes.Repeat([]byte{'a'}, 258),
		"run of 259":       bytes.Repeat([]byte{'a'}, 259),
		"random":           random(5000),
		"repeat at 32,768": append(append([]byte(nil), window...), window[:1000]...),
		"repeat at 32,769": append(append(append([]byte(nil), window...), 'x'), window[:1000]...),
		"templates over 64 KiB": []byte(strings.Repeat(
			"Q. Is the Nile longer than the Amazon? yes no 0.75 0.25 | ", 1200) + string(random(3000))),
	}
	names, sets, m := datasetPublications(t)
	for i, tasks := range sets {
		cases[names[i]] = mustEncodeBinaryPublication(t, tasks, m)[len(publicationMagic):]
	}
	for name, body := range cases {
		want := referenceDeflate(body)
		if got := deflateStream(body); !bytes.Equal(got, want) {
			t.Errorf("%s: the writer writes %d bytes that differ from the reference's %d", name, len(got), len(want))
			continue
		}
		d := deflaters.Get().(*deflater)
		d.reset(nil)
		for n := 0; n < len(body); n += 1 + r.Intn(700) {
			d.write(body[:n], false)
		}
		d.write(body, true)
		if !bytes.Equal(d.out, want) {
			t.Errorf("%s: advanced as the body grows, the writer writes %d bytes that differ from one pass's %d", name, len(d.out), len(want))
		}
		releaseDeflater(d)
		if got := inflate(t, want); !bytes.Equal(got, body) {
			t.Errorf("%s: compress/flate reads the stream back to %d bytes that differ from the %d-byte body", name, len(got), len(body))
		}
		t.Logf("%-22s %6d B → %6d B", name, len(body), len(want))
	}
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

// dynamicLiterals is body as one final dynamic-Huffman block (BTYPE 10)
// that codes every byte as a literal: 0-254 in 8 bits, 255 and the end of
// block in 9, no distance codes.
func dynamicLiterals(body []byte) []byte {
	var w bitWriter
	w.bits(1, 1)
	w.bits(2, 2)
	w.bits(0, 5) // HLIT: 257 literal/length codes
	w.bits(0, 5) // HDIST: one distance code
	w.bits(3, 4) // HCLEN: 7 code-length codes, for 16 17 18 0 8 7 9
	for _, n := range []uint64{0, 0, 0, 2, 1, 0, 2} {
		w.bits(n, 3)
	}
	// The code-length code: 8 is "0", 0 is "10", 9 is "11".
	for sym := 0; sym < 257; sym++ {
		if sym < 255 {
			w.code(0, 1)
		} else {
			w.code(3, 2)
		}
	}
	w.code(2, 2) // the one distance code is unused: length 0
	literal := func(sym int) {
		if sym < 255 {
			w.code(uint64(sym), 8)
		} else {
			w.code(uint64(510+sym-255), 9)
		}
	}
	for _, c := range body {
		literal(int(c))
	}
	literal(256)
	return w.bytes()
}

// twoBlocks is the writer's tokens for body in two fixed-code blocks, split
// at the middle token.
func twoBlocks(body []byte) []byte {
	tokens := referenceTokens(body)
	var w bitWriter
	w.fixedBlock(tokens[:len(tokens)/2], false)
	w.fixedBlock(tokens[len(tokens)/2:], true)
	return w.bytes()
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
			var w bitWriter
			w.fixedBlock(cut, true)
			return w.bytes()
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
	var w bitWriter
	w.fixedBlock(referenceTokens(body), true)
	return (8 - w.nacc) % 8
}
