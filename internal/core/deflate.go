// The pinned DEFLATE writer behind the DPC4 publication record.
//
// A DPC4 decoder accepts any stream that inflates to a valid body, so this
// writer is kept for its footprint, not its spelling: its pooled tables and
// token block are 145 KiB, where one compress/flate writer at level 6
// allocates ≈807 KB (≈1.2 MB at BestSpeed), which every process would pay
// on its first publish. Its output is fixed by its rules alone. It chooses
// its matches greedily:
//
//   - at each position it takes the longest match of 3 to 258 bytes among
//     the 32 most recent earlier positions with the same hash inside the
//     32,768-byte window, the nearest of equals (the first found), and
//     writes the byte as a literal when none reaches 3;
//   - every position with three bytes left enters its hash's chain, the
//     positions inside a match too;
//   - the hash of the bytes b0 b1 b2 at a position is
//     ((b0 | b1<<8 | b2<<16) * 2654435761) >> 20 in uint32, 12 bits;
//
// and writes them in RFC 1951 dynamic-Huffman blocks (BTYPE 10) of 16,384
// tokens, the final one holding the rest. A block's literal/length (its end
// of block counted once) and distance codes come from its counts by
// package-merge limited to 15 bits: the used symbols by count, then symbol,
// merged at each level with the level below's pairs, a symbol ahead of an
// equal pair; a length is how often the top level's first 2n−2 items hold
// the symbol. A lone symbol has length 1; no match, one distance length 0.
// HLIT and HDIST end at the last non-zero length (at least 257 and 1), and
// the lengths are coded from the left: r zeros as 18s of up to 138 while
// r ≥ 11, a 17 if r ≥ 3, then 0s; r of v > 0 as v, 16s of up to 6 while 3
// or more are left, then v. The code-length code is package-merge's limited
// to 7 bits; HCLEN ends at its last non-zero length in RFC order (min 4).
//
// It can be advanced as the body grows: a position is encoded once the body
// holds its lookahead, a block is written once the next token exists, and
// the stream equals the one a single pass over the whole body writes.
package core

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

const (
	windowSize = 1 << 15 // the farthest a match may reach back
	hashBits   = 12
	chainLen   = 32 // candidates tried a position
	minMatch   = 3
	maxMatch   = 258
	// lookahead is how many bytes from a position its encoding reads: a
	// match's 258, and the three its last position hashes.
	lookahead              = maxMatch + minMatch - 1
	numLit, numDist, numCL = 286, 30, 19 // the alphabets' sizes
)

// clOrder is the order HCLEN lists the code-length code's lengths in.
var clOrder = [numCL]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// deflater is one stream's state. reset starts a stream, write advances it.
type deflater struct {
	head [1 << hashBits]int32 // newest position with the hash, plus one; 0 if none
	ring [windowSize]uint16   // by position mod the window: back to the previous with its hash, 0 if none in the window
	pos  int                  // the next position to encode
	acc  uint64               // bits not yet in out, the first in the lowest
	nacc uint                 // how many
	out  []byte               // the stream so far
	toks [1 << 14]uint32      // the block: a literal's byte, or a match's pairToken
	ntok int
	lens [numLit + numDist]uint8 // the block's codes, the distance code's from HLIT
	code [numLit + numDist]uint16
}

// deflaters pools the writers (145 KiB of tables and tokens) packRecord
// runs.
var deflaters = sync.Pool{New: func() any { return new(deflater) }}

// releaseDeflater returns d to the pool, which keeps no reference to the
// stream it wrote.
func releaseDeflater(d *deflater) {
	d.out = nil
	deflaters.Put(d)
}

// reset begins a stream that write appends to out. The ring needs no
// clearing: a chain reaches a ring entry only through positions this
// stream entered.
func (d *deflater) reset(out []byte) {
	clear(d.head[:])
	d.pos, d.out, d.acc, d.nacc, d.ntok = 0, out, 0, 0, 0
}

// write encodes b's positions from the first not yet encoded: those whose
// lookahead b holds, or, when final, all that are left, followed by the
// final block and zero bits up to a byte. b must extend what the stream's
// earlier calls were given.
func (d *deflater) write(b []byte, final bool) {
	for d.pos+lookahead <= len(b) || final && d.pos < len(b) {
		if d.ntok == len(d.toks) {
			d.block(0)
		}
		length, dist := d.match(b, d.pos)
		d.toks[d.ntok], d.ntok = uint32(b[d.pos]), d.ntok+1
		if length < minMatch {
			d.pos++
			continue
		}
		d.toks[d.ntok-1] = pairToken(length, dist)
		end := d.pos + length
		for d.pos++; d.pos < end; d.pos++ {
			if d.pos+minMatch <= len(b) {
				d.insert(d.pos, hash3(b[d.pos:]))
			}
		}
	}
	if final {
		d.block(1)
		for ; d.nacc > 0; d.nacc -= min(d.nacc, 8) {
			d.out = append(d.out, byte(d.acc))
			d.acc >>= 8
		}
	}
}

// match finds the greedy match at pos among the earlier positions, and
// enters pos into its chain.
func (d *deflater) match(b []byte, pos int) (length, dist int) {
	limit := min(maxMatch, len(b)-pos)
	if limit < minMatch {
		return 0, 0
	}
	h := hash3(b[pos:])
	best := minMatch - 1
	p := int(d.head[h]) - 1
	for tries := 0; tries < chainLen && p >= 0 && pos-p <= windowSize; tries++ {
		// Only a match longer than the best can replace it.
		if b[p+best] == b[pos+best] {
			if n := matchLen(b[p:p+limit], b[pos:pos+limit]); n > best {
				best, dist = n, pos-p
				if n == limit {
					break
				}
			}
		}
		back := int(d.ring[p&(windowSize-1)])
		if back == 0 {
			break
		}
		p -= back
	}
	d.insert(pos, h)
	return best, dist
}

func (d *deflater) insert(pos int, h uint32) {
	back := uint16(0)
	if q := int(d.head[h]) - 1; q >= 0 && pos-q <= windowSize {
		back = uint16(pos - q)
	}
	d.ring[pos&(windowSize-1)] = back
	d.head[h] = int32(pos + 1)
}

func hash3(b []byte) uint32 {
	return (uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16) * 2654435761 >> (32 - hashBits)
}

// matchLen is the length of a and b's common prefix; len(a) == len(b).
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)/8
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// pairToken is a match's length symbol, its extra bits, its distance symbol
// and their extra bits, from bits 0, 9, 14 and 19.
func pairToken(length, dist int) uint32 {
	sym, extra := uint32(285), uint32(0)
	if x := uint32(length - minMatch); x < 8 {
		sym = 257 + x
	} else if length < maxMatch {
		n := uint32(bits.Len32(x)) - 3
		sym, extra = 261+4*n+(x>>n)&3, x&(1<<n-1)
	}
	dsym, dextra := uint32(dist-1), uint32(0)
	if x := dsym; x >= 4 {
		n := uint32(bits.Len32(x)) - 2
		dsym, dextra = 2*n+(x>>n)&1+2, x&(1<<n-1)
	}
	return sym | extra<<9 | dsym<<14 | dextra<<19
}

// block writes out the tokens held as one block, the final one if final is 1.
func (d *deflater) block(final uint64) {
	count := [numLit + numDist]uint32{256: 1} // the end of block, once
	for _, t := range d.toks[:d.ntok] {
		count[t&511]++
		count[numLit+t>>14&31] += t >> 8 & 1 // a match's distance
	}
	hlit := max(257, huffman(count[:numLit], d.lens[:numLit], d.code[:numLit], 15))
	hdist := max(1, huffman(count[numLit:], d.lens[hlit:hlit+numDist], d.code[hlit:hlit+numDist], 15))
	lens, hclen := d.lens[:hlit+hdist], numCL
	runs, clCount := make([]uint16, 0, numLit+numDist), [numCL]uint32{} // a run: its symbol, its extra bits from bit 5
	for i := 0; i < len(lens); {
		v, r := lens[i], 1 // r: how many of v from i on
		for i+r < len(lens) && lens[i+r] == v {
			r++
		}
		k, run := 1, uint16(v)
		switch {
		case v == 0 && r >= 11:
			k, run = min(r, 138), 18|uint16(min(r, 138)-11)<<5
		case v == 0 && r >= 3:
			k, run = r, 17|uint16(r-3)<<5
		case v != 0 && r >= 3 && i > 0 && lens[i-1] == v:
			k, run = min(r, 6), 16|uint16(min(r, 6)-3)<<5
		}
		runs, i = append(runs, run), i+k
		clCount[run&31]++
	}
	clLens, clCode := [numCL]uint8{}, [numCL]uint16{}
	huffman(clCount[:], clLens[:], clCode[:], 7)
	for hclen > 4 && clLens[clOrder[hclen-1]] == 0 {
		hclen--
	}
	d.put(final|2<<1|uint64(hlit-257)<<3|uint64(hdist-1)<<8|uint64(hclen-4)<<13, 17)
	for _, sym := range clOrder[:hclen] {
		d.put(uint64(clLens[sym]), 3)
	}
	for _, run := range runs {
		sym := run & 31
		d.put(uint64(clCode[sym])|uint64(run>>5)<<clLens[sym], uint(clLens[sym]+[numCL]uint8{16: 2, 17: 3, 18: 7}[sym]))
	}
	for _, t := range d.toks[:d.ntok] {
		sym, dsym := t&511, uint32(hlit)+t>>14&31
		d.put(uint64(d.code[sym])|uint64(t>>9&31)<<d.lens[sym], uint(d.lens[sym])+uint(max(0, int(sym)-261)/4%6))
		if sym > 256 {
			d.put(uint64(d.code[dsym])|uint64(t>>19)<<d.lens[dsym], uint(d.lens[dsym])+uint(max(0, int(t>>14&31)/2-1)))
		}
	}
	d.put(uint64(d.code[256]), uint(d.lens[256]))
	d.ntok = 0
}

// huffman sets lens to the package-merge lengths of counts, limited to
// limit bits, and code to their canonical codes (RFC 1951 section 3.2.2),
// bit-reversed; it returns 1 + the last used symbol.
func huffman(counts []uint32, lens []uint8, code []uint16, limit int) (end int) {
	var lists [2][2 * numLit]uint32
	var taken [15][2*numLit + 1]uint16  // by level: of the first i items, how many are symbols
	sorted := make([]uint32, 0, numLit) // count<<9 | symbol
	for sym, c := range counts {
		if c > 0 {
			sorted, end = append(sorted, c<<9|uint32(sym)), sym+1
		}
	}
	slices.Sort(sorted)
	n, prev := len(sorted), lists[0][:0]
	for j := 0; j < limit; j++ {
		cur := lists[j&1][:0]
		for l, p := 0, 0; l < n || p+1 < len(prev); taken[j][len(cur)] = uint16(l) {
			if p+1 >= len(prev) || l < n && sorted[l]>>9 <= prev[p]+prev[p+1] {
				cur, l = append(cur, sorted[l]>>9), l+1
			} else {
				cur, p = append(cur, prev[p]+prev[p+1]), p+2
			}
		}
		prev = cur
	}
	clear(lens)
	for j, x := limit-1, max(2*n-2, n); x > 0; j-- {
		for _, o := range sorted[:taken[j][x]] {
			lens[o&511]++
		}
		x = 2 * (x - int(taken[j][x]))
	}
	for l, next := uint8(1), uint16(0); l <= 15; l, next = l+1, next<<1 {
		for sym := range lens {
			if lens[sym] == l {
				code[sym], next = bits.Reverse16(next)>>(16-l), next+1
			}
		}
	}
	return end
}

// put appends the low n bits of v to the stream, first bit lowest; n is at
// most 32.
func (d *deflater) put(v uint64, n uint) {
	d.acc |= v << d.nacc
	if d.nacc += n; d.nacc >= 32 {
		d.out = binary.LittleEndian.AppendUint32(d.out, uint32(d.acc))
		d.acc >>= 32
		d.nacc -= 32
	}
}
