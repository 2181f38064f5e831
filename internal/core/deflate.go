// The pinned DEFLATE writer behind the DPC3 publication record.
//
// A DPC3 decoder holds its stream to a re-encode of the body, so the
// record's bytes must be a function of the body that no toolchain moves —
// which compress/flate's writer, retuned across Go releases, is not. This
// writer's output is fixed by its rules alone. It writes an RFC 1951
// stream of one final block with the fixed Huffman codes (BTYPE 01), and
// chooses its matches greedily:
//
//   - at each position it takes the longest match of 3 to 258 bytes among
//     the 32 most recent earlier positions with the same hash inside the
//     32,768-byte window, the nearest of equals (the first found), and
//     writes the byte as a literal when none reaches 3;
//   - every position with three bytes left enters its hash's chain, the
//     positions inside a match too;
//   - the hash of the bytes b0 b1 b2 at a position is
//     ((b0 | b1<<8 | b2<<16) * 2654435761) >> 20 in uint32, 12 bits.
//
// Its tables, a 4,096-entry head and a 32,768-entry distance ring (80 KiB),
// are pooled. It can be advanced as the body grows: a position is encoded
// once the body holds its lookahead, and the stream equals the one a single
// pass over the whole body writes.
package core

import (
	"encoding/binary"
	"math/bits"
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
	lookahead = maxMatch + minMatch - 1
)

// deflater is one stream's state. reset starts a stream, write advances it.
type deflater struct {
	head [1 << hashBits]int32 // newest position with the hash, plus one; 0 if none
	ring [windowSize]uint16   // by position mod the window: back to the previous with its hash, 0 if none in the window
	pos  int                  // the next position to encode
	acc  uint64               // bits not yet in out, the first in the lowest
	nacc uint                 // how many
	out  []byte               // the stream so far
}

// deflaters pools the writers packRecord and the DPC3 re-encode check run.
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
	d.pos, d.out = 0, out
	d.acc, d.nacc = 0b011, 3 // BFINAL 1, BTYPE 01
}

// write encodes b's positions from the first not yet encoded: those whose
// lookahead b holds, or, when final, all that are left, followed by the
// end of block and zero bits up to a byte. b must extend what the stream's
// earlier calls were given.
func (d *deflater) write(b []byte, final bool) {
	for d.pos+lookahead <= len(b) || final && d.pos < len(b) {
		length, dist := d.match(b, d.pos)
		if length < minMatch {
			d.literal(b[d.pos])
			d.pos++
			continue
		}
		d.pair(length, dist)
		end := d.pos + length
		for d.pos++; d.pos < end; d.pos++ {
			if d.pos+minMatch <= len(b) {
				d.insert(d.pos, hash3(b[d.pos:]))
			}
		}
	}
	if final {
		d.put(0, 7) // end of block, fixed code 256
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

// put appends the low n bits of v to the stream, first bit lowest.
func (d *deflater) put(v uint64, n uint) {
	d.acc |= v << d.nacc
	if d.nacc += n; d.nacc >= 32 {
		d.out = binary.LittleEndian.AppendUint32(d.out, uint32(d.acc))
		d.acc >>= 32
		d.nacc -= 32
	}
}

// literal writes byte c's fixed code: 8 bits from 00110000 below 144, 9
// bits from 110010000 above.
func (d *deflater) literal(c byte) {
	if c < 144 {
		d.put(reversed(0x30+uint(c), 8), 8)
	} else {
		d.put(reversed(0x190+uint(c)-144, 9), 9)
	}
}

// pair writes a match, a length/distance pair: its length's symbol and
// extra bits, then its distance's, in one put (at most 8+5+5+13 bits).
func (d *deflater) pair(length, dist int) {
	var sym, extra, nextra uint
	switch x := uint(length - minMatch); {
	case length == maxMatch:
		sym = 28
	case x < 8:
		sym = x
	default:
		nextra = uint(bits.Len(x)) - 3
		sym, extra = 4*nextra+4+(x>>nextra)&3, x&(1<<nextra-1)
	}
	var code uint64 // symbols 257-279 are 7 bits from 0, 280-287 8 bits from 11000000
	n := uint(7)
	if sym += 257; sym < 280 {
		code = reversed(sym-256, 7)
	} else {
		code, n = reversed(0xc0+sym-280, 8), 8
	}
	code |= uint64(extra) << n
	n += nextra

	var dsym, dextra, ndextra uint
	if x := uint(dist - 1); x < 4 {
		dsym = x
	} else {
		ndextra = uint(bits.Len(x)) - 2
		dsym, dextra = 2*ndextra+(x>>ndextra)&1+2, x&(1<<ndextra-1)
	}
	code |= (reversed(dsym, 5) | uint64(dextra)<<5) << n
	d.put(code, n+5+ndextra)
}

// reversed is a Huffman code's n bits in the order the stream holds them:
// DEFLATE packs a code from its most significant bit.
func reversed(code, n uint) uint64 {
	return uint64(bits.Reverse16(uint16(code)) >> (16 - n))
}
