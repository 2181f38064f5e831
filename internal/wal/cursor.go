package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Cursor is the one reader under every binary format this repository keeps
// on disk (the record payload, the batch blob, the seed and publication
// blobs, the snapshot payload). It pops primitives off a byte slice and
// holds the two rules all of them share: an integer is a minimal uvarint,
// so an accepted input re-encodes to the same bytes, and an element count
// is checked against the bytes that remain before the caller allocates for
// it, so a hostile count buys no memory the input's own length does not
// bound. The first malformed field is kept in Err; after it every pop
// returns a zero value and nothing remains, so a format's loops run out
// harmlessly and its decoder reports the one error. No pop panics, whatever
// the input.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a cursor at the start of b, which it never writes.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Err returns the first failure, nil while every pop has succeeded.
func (c *Cursor) Err() error { return c.err }

// Off returns how many bytes have been consumed (all of them once failed).
func (c *Cursor) Off() int { return c.off }

// Len returns how many bytes remain.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Failf records a format-level failure (a field that parsed but breaks the
// format's own rules) exactly as a malformed primitive is recorded: the
// first one wins and the input is spent.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
		c.off = len(c.b)
	}
}

// Uvarint pops one uvarint, rejecting a non-minimal ("overlong") encoding:
// without that, two byte strings could alias one value and CRC-valid
// garbage would have more ways to parse.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 || (n > 1 && v>>(7*(n-1)) == 0) {
		c.Failf("bad varint at byte %d", c.off)
		return 0
	}
	c.off += n
	return v
}

// Int pops a uvarint that must fit an int.
func (c *Cursor) Int() int {
	v := c.Uvarint()
	if v > math.MaxInt {
		c.Failf("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Count pops an element count and checks it against the bytes remaining,
// each element taking at least size bytes — so the caller may allocate
// count elements before reading them.
func (c *Cursor) Count(size int) int {
	n := c.Uvarint()
	if n > uint64(c.Len()/size) {
		c.Failf("count %d exceeds the %d bytes remaining", n, c.Len())
		return 0
	}
	return int(n)
}

// Bytes pops a uvarint-length-prefixed field: a sub-slice of the input,
// not a copy.
func (c *Cursor) Bytes() []byte {
	n := c.Count(1)
	field := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return field
}

// Terminated pops the bytes before the next 0x00, then the 0x00: a
// sub-slice of the input, not a copy.
func (c *Cursor) Terminated() []byte {
	n := bytes.IndexByte(c.b[c.off:], 0)
	if n < 0 {
		c.Failf("no terminator after byte %d", c.off)
		return nil
	}
	field := c.b[c.off : c.off+n : c.off+n]
	c.off += n + 1
	return field
}

// Byte pops one raw byte.
func (c *Cursor) Byte() byte {
	if c.Len() < 1 {
		c.Failf("byte missing at %d", c.off)
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

// U64 pops 8 raw little-endian bytes (a float64 travels as its bits).
func (c *Cursor) U64() uint64 {
	if c.Len() < 8 {
		c.Failf("8-byte value cut short at byte %d", c.off)
		return 0
	}
	c.off += 8
	return binary.LittleEndian.Uint64(c.b[c.off-8:])
}

// Ints pops a count-prefixed run of integers, nil when the count is zero.
func (c *Cursor) Ints() []int {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = c.Int()
	}
	return out
}

// Columns pops what AppendColumns appends. The four sections are popped
// as they come: that their lengths agree and the indexes fit the
// dictionary is for the format that embeds them to require.
func (c *Cursor) Columns() Columns {
	var cols Columns
	if n := c.Count(1); n > 0 {
		cols.Workers = make([]string, n)
		for i := range cols.Workers {
			cols.Workers[i] = string(c.Bytes())
		}
	}
	cols.W, cols.T, cols.C = c.Ints(), c.Ints(), c.Ints()
	return cols
}

// SparseFloats pops what AppendSparseFloats appends — a vector of length m
// held against base — into into's storage (the zero value, or a spent vector
// whose arrays are reused). The count is checked against the bytes that
// remain before anything grows, and a listed entry equal to the default, out
// of order or not below m is a failure: the encoder writes none.
func (c *Cursor) SparseFloats(into SparseFloats, m int, base float64) SparseFloats {
	n := c.Count(9)
	into.K, into.V = slices.Grow(into.K[:0], n), slices.Grow(into.V[:0], n)
	prev, baseBits := -1, math.Float64bits(base)
	for ; n > 0; n-- {
		k, bits := c.Int(), c.U64()
		if c.err == nil && (k <= prev || k >= m || bits == baseBits) {
			c.Failf("%v", sparseEntryError(k, bits, prev, m))
		}
		if c.err != nil {
			return SparseFloats{}
		}
		into.K, into.V = append(into.K, k), append(into.V, math.Float64frombits(bits))
		prev = k
	}
	return into
}

// End closes the decode: bytes left over are a failure like any other (a
// canonical format has no trailing garbage). It returns Err.
func (c *Cursor) End() error {
	if n := c.Len(); n != 0 {
		c.Failf("%d trailing bytes", n)
	}
	return c.err
}
