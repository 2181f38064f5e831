package wal

import (
	"encoding/binary"
	"fmt"
)

// Columns is a chronological run of answers in columnar form: Workers is a
// dictionary of the run's distinct worker IDs in first-appearance order and
// W/T/C are parallel arrays of (dictionary index, task ID, choice). It is
// the one layout both durable answer runs use — a KindBatch record's blob
// (wire.go) and the state snapshot's log section — so a worker ID is
// spelled once per run, not once per answer, and nothing frames an answer
// on its own.
type Columns struct {
	Workers []string
	W       []int
	T       []int
	C       []int
}

// Len returns the number of answers in the run.
func (c *Columns) Len() int { return len(c.W) }

// ColumnBuilder accumulates answers into Columns, interning each worker ID
// at its first appearance. The lookup is only ever probed, never ranged
// over, so what it builds is a pure function of the Add sequence.
type ColumnBuilder struct {
	Columns
	slot map[string]int // worker ID → index in Workers
}

// Add appends one answer to the run.
func (b *ColumnBuilder) Add(worker string, task, choice int) {
	i, ok := b.slot[worker]
	if !ok {
		if b.slot == nil {
			b.slot = make(map[string]int)
		}
		i = len(b.Workers)
		b.slot[worker] = i
		b.Workers = append(b.Workers, worker)
	}
	b.W = append(b.W, i)
	b.T = append(b.T, task)
	b.C = append(b.C, choice)
}

// AppendColumns appends the run's encoding to dst:
//
//	workers: count, count × (len, bytes) | w: count, n × uvarint |
//	t: count, n × uvarint | c: count, n × uvarint
//
// It fails only on a negative integer, which the format cannot express
// (written as its two's complement it would be a value no reader accepts).
// (*Cursor).Columns pops what this appends.
func AppendColumns(dst []byte, c *Columns) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(c.Workers)))
	for _, w := range c.Workers {
		dst = binary.AppendUvarint(dst, uint64(len(w)))
		dst = append(dst, w...)
	}
	for _, col := range [...][]int{c.W, c.T, c.C} {
		dst = binary.AppendUvarint(dst, uint64(len(col)))
		for _, v := range col {
			if v < 0 {
				return nil, fmt.Errorf("negative integer %d", v)
			}
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst, nil
}
