package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestSparseFloatsRoundTrip: whatever a vector holds and whatever it is held
// against, SparseOf → AppendSparseFloats → Cursor.SparseFloats → Scatter
// gives back its bits, lists exactly the entries that differ from the
// default by bits, and re-encodes to the same bytes; a spent vector's
// arrays are reused.
func TestSparseFloatsRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8000000000abc)
	vectors := [][]float64{
		nil,
		{0, 0, 0},
		{0.7, 0.7, 0.7, 0.7},
		{0, negZero, math.SmallestNonzeroFloat64, 0.7, nan, 1, 0},
		{nan, 0.25, 0.75},
	}
	var reused SparseFloats
	for _, base := range []float64{0, negZero, 0.7, nan} {
		for _, v := range vectors {
			sf := SparseOf(SparseFloats{}, v, base)
			listed := 0
			for _, x := range v {
				if math.Float64bits(x) != math.Float64bits(base) {
					listed++
				}
			}
			if len(sf.K) != listed || len(sf.V) != listed {
				t.Fatalf("%v against %v lists %d entries, want %d", v, base, len(sf.K), listed)
			}
			b, err := AppendSparseFloats([]byte{0xaa}, sf, len(v), base)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCursor(b[1:])
			reused = c.SparseFloats(reused, len(v), base)
			if err := c.End(); err != nil {
				t.Fatalf("%v against %v: %v", v, base, err)
			}
			back := make([]float64, len(v))
			for k := range back {
				back[k] = base
			}
			if err := reused.Scatter(back); err != nil {
				t.Fatal(err)
			}
			for k := range v {
				if math.Float64bits(back[k]) != math.Float64bits(v[k]) {
					t.Fatalf("%v against %v: entry %d came back %x", v, base, k, math.Float64bits(back[k]))
				}
			}
			again, err := AppendSparseFloats([]byte{0xaa}, reused, len(v), base)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("%v against %v: re-encoding changed the bytes (err %v)", v, base, err)
			}
		}
	}
}

// TestSparseFloatsCanonical: what is not the one encoding of a vector is
// refused on the way out and on the way in — an entry equal to the default,
// an index out of order, repeated or not below m, columns of unequal length,
// a count the bytes cannot hold.
func TestSparseFloatsCanonical(t *testing.T) {
	const m, base = 4, 0.7
	bad := map[string]SparseFloats{
		"default listed": {K: []int{1}, V: []float64{base}},
		"index at m":     {K: []int{m}, V: []float64{1}},
		"out of order":   {K: []int{2, 1}, V: []float64{1, 1}},
		"repeated":       {K: []int{2, 2}, V: []float64{1, 0.5}},
		"negative index": {K: []int{-1}, V: []float64{1}},
		"ragged":         {K: []int{0, 1}, V: []float64{1}},
	}
	for name, sf := range bad {
		if b, err := AppendSparseFloats(nil, sf, m, base); err == nil {
			t.Errorf("%s: encoded to %x", name, b)
		}
		if name == "ragged" || name == "negative index" {
			continue // no byte string says either
		}
		b := binary.AppendUvarint(nil, uint64(len(sf.K)))
		for i, k := range sf.K {
			b = binary.AppendUvarint(b, uint64(k))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sf.V[i]))
		}
		c := NewCursor(b)
		if got := c.SparseFloats(SparseFloats{}, m, base); c.Err() == nil || got.K != nil || got.V != nil {
			t.Errorf("%s: decoded to %+v (error %v)", name, got, c.Err())
		}
	}
	c := NewCursor(binary.AppendUvarint(nil, 1<<40))
	if c.SparseFloats(SparseFloats{}, m, base); c.Err() == nil {
		t.Error("a count of 2^40 over no bytes was accepted")
	}
	if err := (SparseFloats{K: []int{4}, V: []float64{1}}).Scatter(make([]float64, 4)); err == nil {
		t.Error("Scatter wrote past the vector")
	}
}
