// The task table: a published campaign's tasks as its publication record's
// own bytes.
//
// Assignment and inference read a task's domain vector and choice count
// alone — the candidate index's rest states hold both — and only serving a
// task reads its text and choices. So a campaign keeps no per-task struct:
// it keeps the DPC1 body its publish packed, or its wake inflated, as one
// slab, and per position the offsets of the task's text and of its choices
// in it. Both paths build the table with one function, the publication
// decoder, so they hold the same bytes.
package core

import (
	"bytes"
	"unsafe"

	"docs/internal/wal"
)

// taskTable is a publication's tasks by position: the DPC1 body (the blob
// after its magic), never written once the table holds it, the offset in it
// of each task's text and of its choice count, which its choices follow,
// and where its truth column starts. The column is a byte a task unless
// some truth+1 is 128 or more (ℓ > 128); then wide holds every task's
// truth, and the column is not read.
type taskTable struct {
	body    []byte
	text    []int32
	choices []int32
	truths  int
	wide    []int32
}

// sealed returns b as a string without copying it. The caller never writes
// b again: the string is as immutable as any other.
func sealed(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// tstrAt returns the terminated string at off in body: a substring of the
// body unless it holds an escape. The decoder has checked every one.
func tstrAt(body []byte, off int32) string {
	raw := body[off:]
	raw = raw[:bytes.IndexByte(raw, 0)]
	if bytes.IndexByte(raw, 1) < 0 {
		return sealed(raw)
	}
	return unescape.Replace(sealed(raw))
}

// ell returns the choice count ℓ of the task at position p.
func (tt *taskTable) ell(p int) int {
	c := wal.NewCursor(tt.body[tt.choices[p]:])
	return int(c.Uvarint())
}

// truth returns the truth the requester gave the task at position p, or
// NoTruth.
func (tt *taskTable) truth(p int) int {
	if tt.wide != nil {
		return int(tt.wide[p])
	}
	return int(tt.body[tt.truths+p]) - 1
}

// textAt returns the text of the task at position p.
func (tt *taskTable) textAt(p int) string { return tstrAt(tt.body, tt.text[p]) }

// appendChoices appends the choices of the task at position p to dst:
// substrings of the body.
func (tt *taskTable) appendChoices(dst []string, p int) []string {
	c := wal.NewCursor(tt.body[tt.choices[p]:])
	for n := c.Uvarint(); n > 0; n-- {
		dst = append(dst, tstrAt(tt.body, tt.choices[p]+int32(c.Off())))
		c.Terminated()
	}
	return dst
}
