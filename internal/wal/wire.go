// Batch blobs: the encoding of a batched answer submit inside a KindBatch
// record.
//
// Carrying the whole group in one record's blob is what makes a batched
// submit one durable frame — all-or-nothing under the torn-tail rule —
// instead of N. Inside the blob the group is columns, not answers dressed
// as records:
//
//	magic "DBB2" | workers: count, count × str | w: count, n × uvarint |
//	t: count, n × uvarint | c: count, n × uvarint
//
// — the Columns layout (columns.go), read through the Cursor like every
// other decoder. There is no inner CRC: the enclosing record's frame
// already covers every byte. The encoding is canonical on top of the
// cursor's rules, so one batch has exactly one byte string: n ≥ 1, the
// three column counts equal, every index inside the dictionary, and the
// dictionary holding no duplicate and no unused entry, in the order w
// first uses them.
package wal

import (
	"bytes"
	"fmt"
)

// batchMagic opens every batch blob.
var batchMagic = []byte("DBB2")

// EncodeBatch appends the blob encoding of a batch of answers to dst. It
// fails only on a negative task ID or choice, which no reader would accept
// back.
//
//docs:deterministic
func EncodeBatch(dst []byte, c *Columns) ([]byte, error) {
	blob, err := AppendColumns(append(dst, batchMagic...), c)
	if err != nil {
		return nil, fmt.Errorf("wal: batch blob: %w", err)
	}
	return blob, nil
}

// DecodeBatch parses a batch blob into columns. A torn, corrupt, or
// non-canonical blob is rejected whole: the enclosing record's CRC already
// held, so a bad byte inside it has no crash excuse.
func DecodeBatch(data []byte) (Columns, error) {
	if !bytes.HasPrefix(data, batchMagic) {
		return Columns{}, fmt.Errorf("wal: batch blob lacks magic %q", batchMagic)
	}
	c := NewCursor(data[len(batchMagic):])
	cols := c.Columns()
	err := c.End()
	if err == nil {
		err = checkBatch(&cols)
	}
	if err != nil {
		return Columns{}, fmt.Errorf("wal: batch blob: %w", err)
	}
	return cols, nil
}

// checkBatch holds popped columns to the batch blob's canonical rules.
func checkBatch(c *Columns) error {
	n := len(c.W)
	if n == 0 {
		return fmt.Errorf("empty batch")
	}
	if len(c.T) != n || len(c.C) != n {
		return fmt.Errorf("column counts %d/%d/%d disagree", n, len(c.T), len(c.C))
	}
	used := 0 // dictionary entries w has reached so far
	for i, w := range c.W {
		switch {
		case w >= len(c.Workers):
			return fmt.Errorf("item %d: worker index %d outside the %d-entry dictionary", i+1, w, len(c.Workers))
		case w > used:
			return fmt.Errorf("item %d: worker index %d before index %d was used (dictionary out of first-use order)", i+1, w, used)
		case w == used:
			used++
		}
	}
	if used < len(c.Workers) {
		return fmt.Errorf("dictionary entry %d is unused", used)
	}
	seen := make(map[string]struct{}, len(c.Workers))
	for _, w := range c.Workers {
		if _, dup := seen[w]; dup {
			return fmt.Errorf("dictionary repeats worker %q", w)
		}
		seen[w] = struct{}{}
	}
	return nil
}
