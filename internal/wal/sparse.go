package wal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SparseFloats is a float64 vector of some length m held as the entries
// whose bits differ from a default value the context fixes (+0 for a domain
// vector or a weight vector, the prior quality for a quality vector): K are
// their indexes, strictly ascending and below m, and V[i] is entry K[i]. The
// comparison is by Float64bits, so −0, denormals and NaNs are entries like
// any other and a vector survives the round trip bit for bit whatever it
// holds. On disk (AppendSparseFloats, Cursor.SparseFloats) it is
//
//	count uvarint | count × (index uvarint | 8 raw LE bytes)
//
// the layout a DPC1 publication gives each distinct domain vector and a
// DOCSSNP5 snapshot gives every (q, u) statistic.
type SparseFloats struct {
	K []int
	V []float64
}

// SparseOf returns the sparse form of dense against base, appended to into's
// storage (pass the zero value, or a spent vector to reuse its arrays).
func SparseOf(into SparseFloats, dense []float64, base float64) SparseFloats {
	into.K, into.V = into.K[:0], into.V[:0]
	baseBits := math.Float64bits(base)
	for k, x := range dense {
		if math.Float64bits(x) != baseBits {
			into.K, into.V = append(into.K, k), append(into.V, x)
		}
	}
	return into
}

// Scatter writes the entries into dense, which the caller has filled with
// the default; it fails on an index dense does not have.
func (sf SparseFloats) Scatter(dense []float64) error {
	for i, k := range sf.K {
		if k < 0 || k >= len(dense) || i >= len(sf.V) {
			return fmt.Errorf("sparse vector entry %d (index %d) does not fit %d entries", i, k, len(dense))
		}
		dense[k] = sf.V[i]
	}
	return nil
}

// AppendSparseFloats appends a vector of length m held against base. One
// vector has one byte string, so what Cursor.SparseFloats would refuse is
// refused here too: columns of unequal length, an index out of order or not
// below m, an entry whose bits are the default's.
func AppendSparseFloats(b []byte, sf SparseFloats, m int, base float64) ([]byte, error) {
	if len(sf.K) != len(sf.V) {
		return nil, fmt.Errorf("sparse vector has %d indexes for %d values", len(sf.K), len(sf.V))
	}
	b = binary.AppendUvarint(b, uint64(len(sf.K)))
	prev, baseBits := -1, math.Float64bits(base)
	for i, k := range sf.K {
		bits := math.Float64bits(sf.V[i])
		if k <= prev || k >= m || bits == baseBits {
			return nil, sparseEntryError(k, bits, prev, m)
		}
		b = binary.AppendUvarint(b, uint64(k))
		b = binary.LittleEndian.AppendUint64(b, bits)
		prev = k
	}
	return b, nil
}

func sparseEntryError(k int, bits uint64, prev, m int) error {
	return fmt.Errorf("sparse vector entry %d (bits %#x) after entry %d, of %d entries", k, bits, prev, m)
}
