// Publications: the durable record of a campaign's task set.
//
// Publish logs the tasks as they stand after DVE — every task carrying its
// m-long domain vector — as one KindPublish record, so no boot, wake or
// snapshot pass re-runs entity linking against a knowledge base that may
// have changed since. Every one of those is a scratch replay that reads
// this record again, so its size is most of a young campaign's disk bill
// and its decode most of a wake.
//
// The blob is canonical and binary, in the style of the state snapshot
// and the KindSeed blob:
//
//	magic "DPB1" | m uvarint | n uvarint | n × task
//	task:  id uvarint | text str | ℓ uvarint | ℓ × choice str
//	       | truth+1 uvarint | trueDomain+1 uvarint
//	       | nnz uvarint | nnz × (domain index uvarint | 8 raw LE bytes)
//	str:   len uvarint | bytes
//
// An integer is a minimal uvarint; truth and trueDomain are stored plus
// one, so NoTruth is 0. A domain vector is a wal.SparseFloats against +0:
// only the entries whose Float64bits is non-zero — DVE gives a task weight
// in one or two of the 26 domains — as raw IEEE-754 bits, indexes strictly
// ascending and below m, so −0, denormals and the uniform "domain unknown"
// vector all round-trip bit for bit through the one layout. (Presence is by
// bits; membership of the task's support is r_k > 0, model.DomainVector.Has:
// a −0 entry is stored and is still outside the support.) One task set has one byte
// string: the decoder accepts nothing the encoder would not write
// (overlong varints, a zero-bits entry, an index out of order and trailing
// bytes are all corruption) and checks every count against the bytes that
// remain before it allocates for it.
//
// The magic's first byte cannot open a JSON document. Until this format
// the blob was json.Marshal of the tasks; segments are never deleted, so
// those records stay readable (decodeLegacyPublication) — and a binary
// that only knows JSON refuses a DPB1 record at its first byte instead of
// misparsing it. Nothing writes JSON any more and nothing selects it.
package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"docs/internal/model"
	"docs/internal/wal"
)

// publicationMagic opens every binary publication blob. Versioned: a
// future layout bumps the trailing byte.
const publicationMagic = "DPB1"

// minTaskBytes is the least a task occupies in a blob: six one-byte
// uvarints around an empty text, no choices and an all-zero vector.
const minTaskBytes = 6

// encodePublication renders a published task set — every task carrying
// its m-long domain vector — as a KindPublish blob. Replay compares the
// state it rebuilds from this record bit for bit, so the encoding is a
// pure function of the tasks. It fails only on a task the format cannot
// express: a negative ID, a truth or true domain below NoTruth, or a
// domain vector that is not m long.
//
//docs:deterministic
func encodePublication(tasks []*model.Task, m int) ([]byte, error) {
	size := len(publicationMagic) + 2*binary.MaxVarintLen64
	for _, t := range tasks {
		size += 32 + len(t.Text)
		for _, c := range t.Choices {
			size += 1 + len(c)
		}
	}
	b := make([]byte, 0, size)
	b = append(b, publicationMagic...)
	b = binary.AppendUvarint(b, uint64(m))
	b = binary.AppendUvarint(b, uint64(len(tasks)))
	var domain wal.SparseFloats // reused task to task
	for _, t := range tasks {
		if t.ID < 0 || t.Truth < model.NoTruth || t.TrueDomain < model.NoTruth {
			return nil, fmt.Errorf("core: publication: task %d (truth %d, true domain %d) has a negative field",
				t.ID, t.Truth, t.TrueDomain)
		}
		if len(t.Domain) != m {
			return nil, fmt.Errorf("core: publication: task %d has a domain vector of size %d, want %d",
				t.ID, len(t.Domain), m)
		}
		b = binary.AppendUvarint(b, uint64(t.ID))
		b = appendStr(b, t.Text)
		b = binary.AppendUvarint(b, uint64(len(t.Choices)))
		for _, c := range t.Choices {
			b = appendStr(b, c)
		}
		b = binary.AppendUvarint(b, uint64(t.Truth+1))
		b = binary.AppendUvarint(b, uint64(t.TrueDomain+1))
		domain = wal.SparseOf(domain, t.Domain, 0)
		var err error
		if b, err = wal.AppendSparseFloats(b, domain, m, 0); err != nil {
			return nil, fmt.Errorf("core: publication: task %d: %w", t.ID, err)
		}
	}
	return b, nil
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decodePublication parses a publish record's task set. It is the one
// reader of the record — replay (applyRecord) and the snapshot restore
// (readPublication) both come through it — and it returns only tasks that
// carry an m-long domain vector, so neither re-runs entity linking on a
// replayed task. It dispatches on the blob's opening bytes: the binary
// format Publish writes, or the JSON array earlier builds wrote.
func decodePublication(rec wal.Record, m int) ([]*model.Task, error) {
	decode := decodeLegacyPublication
	if bytes.HasPrefix(rec.Blob, []byte(publicationMagic)) {
		decode = decodeBinaryPublication
	}
	tasks, err := decode(rec.Blob, m)
	if err != nil {
		return nil, fmt.Errorf("publish record %d: %w", rec.Seq, err)
	}
	return tasks, nil
}

// decodeLegacyPublication reads the JSON array that was the publish blob
// before the binary format. It exists only because logs written then are
// still on disk.
func decodeLegacyPublication(blob []byte, m int) ([]*model.Task, error) {
	var tasks []*model.Task
	if err := json.Unmarshal(blob, &tasks); err != nil {
		return nil, err
	}
	for i, t := range tasks {
		if t == nil {
			return nil, fmt.Errorf("task %d of the publication is null", i)
		}
		if len(t.Domain) != m {
			return nil, fmt.Errorf("task %d has a domain vector of size %d, want %d", t.ID, len(t.Domain), m)
		}
	}
	return tasks, nil
}

// decodeBinaryPublication parses a blob that opens with publicationMagic
// and is stamped with m domains. Whatever follows the magic, it never
// panics. The n tasks, their n×m domain-vector
// floats and every string come from four allocations (the strings are
// substrings of one copy of the blob) plus one choice slice a task; n is
// checked against the bytes remaining first, so a hostile count buys no
// memory the blob's own length does not bound.
func decodeBinaryPublication(blob []byte, m int) ([]*model.Task, error) {
	body := blob[len(publicationMagic):]
	d := pubDecoder{wal.NewCursor(body), string(body)}
	if stamped := d.Uvarint(); d.Err() == nil && stamped != uint64(m) {
		return nil, fmt.Errorf("publication has %d domains, want %d", stamped, m)
	}
	n := d.Count(minTaskBytes)
	if d.Err() != nil {
		return nil, d.Err()
	}
	backing := make([]model.Task, n)
	domains := make([]float64, n*m)
	tasks := make([]*model.Task, n)
	var domain wal.SparseFloats // reused task to task
	for i := range backing {
		t := &backing[i]
		t.ID = d.Int()
		t.Text = d.str()
		if l := d.Count(1); l > 0 {
			t.Choices = make([]string, l)
			for c := range t.Choices {
				t.Choices[c] = d.str()
			}
		}
		t.Truth = d.Int() - 1
		t.TrueDomain = d.Int() - 1
		t.Domain = domains[i*m : (i+1)*m : (i+1)*m]
		domain = d.SparseFloats(domain, m, 0)
		if d.Err() != nil {
			return nil, fmt.Errorf("task %d: %w", t.ID, d.Err())
		}
		if err := domain.Scatter(t.Domain); err != nil {
			return nil, fmt.Errorf("task %d: %w", t.ID, err)
		}
		tasks[i] = t
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	return tasks, nil
}

// pubDecoder is the shared cursor plus the one pop the publication keeps
// to itself: a string that is a substring of s, one copy of the bytes the
// cursor walks, instead of a copy of its own.
type pubDecoder struct {
	wal.Cursor
	s string
}

func (d *pubDecoder) str() string {
	n := len(d.Bytes())
	return d.s[d.Off()-n : d.Off()]
}
