// Publications: the durable record of a campaign's task set.
//
// Publish logs the tasks as they stand after DVE — every task carrying its
// m-long domain vector — as one KindPublish record, so no boot, wake or
// snapshot pass re-runs entity linking against a knowledge base that may
// have changed since. Every one of those is a scratch replay that reads
// this record again, so its size is most of a young campaign's disk bill
// and its decode most of a wake.
//
// The task set is encoded canonical and binary, column by column, so that
// like values lie together — texts next to texts, where the packing below
// finds the template they share — and each distinct domain vector once:
//
//	magic "DPC1" | m uvarint | n uvarint
//	  | n × zigzag(id − previous id − 1) uvarint     previous starts at −1
//	  | n × text tstr
//	  | n × (ℓ uvarint | ℓ × choice tstr)
//	  | n × truth+1 uvarint | n × trueDomain+1 uvarint
//	  | n × vector ref uvarint
//	  | d × vector
//	tstr:  the bytes, with 0x00 → 01 01 and 0x01 → 01 02, then 0x00
//
// An integer is a minimal uvarint; truth and trueDomain are stored plus
// one, so NoTruth is 0. A string ends in a terminator rather than starting
// with its length, so the bytes between two texts cut from one template
// repeat too. Refs number the distinct vectors in order of first
// appearance: a ref below the count d so far names that entry, a ref equal
// to it adds entry d, and the table lists the d entries in that order. A
// vector is a wal.SparseFloats against +0, so −0, denormals and the uniform
// "domain unknown" vector round-trip bit for bit (presence is by bits; the
// task's support is r_k > 0, model.DomainVector.Has, so a stored −0 is
// outside it), and two entries are never byte-equal. One task set has one
// byte string: the decoder accepts nothing the encoder would not write and
// checks every count against the bytes that remain before it allocates.
//
// A publication is mostly its template — a campaign is a batch of questions
// cut from a few sentence patterns — so the record Publish logs is that
// blob packed whenever packing makes it shorter:
//
//	magic "DPC4" | body length uvarint | DEFLATE(body)
//
// where body is the DPC1 blob after its magic and DEFLATE is the pinned
// writer of deflate.go, whose stream — its matches, blocks, code lengths and
// their header — is a function of the body fixed by its rules, not by a
// toolchain; it is read with compress/flate's reader. So DPC4 is canonical
// too: the decoder refuses a stated length over what a publication may
// hold, a stream that inflates to another length or has bytes after its
// final block, one that is not the writer's output for its body, and a DPC4
// blob no shorter than its DPC1 (testdata/publication_dpc4.golden pins the
// writer's bytes). A DPC1 record is read whatever its size; a publish
// record under any other magic is refused, the row-major, LZW-packed and
// fixed-code ones earlier builds logged with an error naming the last
// commit that reads them (errFormatRows, errFormatLZW, errFormatFixed).
package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"docs/internal/model"
	"docs/internal/wal"
)

const (
	// publicationMagic opens every unpacked binary publication blob and
	// deflateMagic every packed one. Versioned: a future layout bumps the
	// trailing byte.
	publicationMagic = "DPC1"
	deflateMagic     = "DPC4"
	// maxPackedBody is the longest body a packed blob may state: the body
	// of the largest DPC1 blob Publish accepts, which is the largest blob
	// one log record holds.
	maxPackedBody = wal.MaxBlob - len(publicationMagic)
)

// minTaskBytes is the least a task occupies in a blob: one byte in each of
// its six columns (an ID, an empty text's terminator, ℓ, truth, true domain
// and ref).
const minTaskBytes = 6

// checkPublicationSize refuses a task set whose DPC1 blob could be too
// large for one log record. It bounds the blob as if every task added a
// vector listing all m entries — exact for the header, the texts, the
// choices, the IDs and the truths, an upper bound for the refs and the
// table — so it needs no domain vector and holds a batch to the record
// size before DVE runs.
func checkPublicationSize(tasks []*model.Task, m int) error {
	vector := uvarintLen(uint64(m))
	for k := 0; k < m; k++ {
		vector += uvarintLen(uint64(k)) + 8
	}
	ref := uvarintLen(uint64(len(tasks)))
	size := len(publicationMagic) + uvarintLen(uint64(m)) + ref
	prev := -1
	for _, t := range tasks {
		size += uvarintLen(zigzag(t.ID-prev-1)) + tstrLen(t.Text) + uvarintLen(uint64(len(t.Choices)))
		prev = t.ID
		for _, c := range t.Choices {
			size += tstrLen(c)
		}
		size += uvarintLen(uint64(t.Truth+1)) + uvarintLen(uint64(t.TrueDomain+1)) + ref + vector
	}
	if size > wal.MaxBlob {
		return fmt.Errorf("core: publication may encode to %d bytes, over the %d a log record holds; publish fewer or shorter tasks",
			size, wal.MaxBlob)
	}
	return nil
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

// zigzag maps a signed step to an unsigned one, small either way.
func zigzag(x int) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// escape and unescape map a string's bytes to a terminated string's and
// back.
var (
	escape   = strings.NewReplacer("\x00", "\x01\x01", "\x01", "\x01\x02")
	unescape = strings.NewReplacer("\x01\x01", "\x00", "\x01\x02", "\x01")
)

// appendTstr appends s as a terminated string.
func appendTstr(b []byte, s string) []byte { return append(append(b, escape.Replace(s)...), 0) }

func tstrLen(s string) int {
	return len(s) + strings.Count(s, "\x00") + strings.Count(s, "\x01") + 1
}

// packRecord returns the record Publish logs for a task set: its DPC1 blob,
// packed as DPC4 when that is the shorter. The columns DVE does not touch —
// IDs, texts, choices, truths — are encoded first and the pinned writer
// advances over them while the linkers run; linked waits for the linkers,
// and only the ref and table columns follow it. So the record is a pure
// function of the tasks, as replay needs. It fails on linked's error or on
// a task the format cannot express: a negative ID, a truth or true domain
// below NoTruth, or a domain vector that is not m long.
//
//docs:deterministic
func packRecord(tasks []*model.Task, m int, linked func() error) ([]byte, error) {
	size := len(publicationMagic) + 2*binary.MaxVarintLen64
	for _, t := range tasks {
		size += 32 + len(t.Text)
		for _, c := range t.Choices {
			size += 1 + len(c)
		}
	}
	blob := make([]byte, 0, size)
	blob = append(blob, publicationMagic...)
	blob = binary.AppendUvarint(blob, uint64(m))
	blob = binary.AppendUvarint(blob, uint64(len(tasks)))
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	d.reset(make([]byte, 0, size/4))
	prev := -1
	for _, t := range tasks {
		if t.ID < 0 || t.Truth < model.NoTruth || t.TrueDomain < model.NoTruth {
			return nil, fmt.Errorf("core: publication: task %d (truth %d, true domain %d) has a negative field",
				t.ID, t.Truth, t.TrueDomain)
		}
		blob = binary.AppendUvarint(blob, zigzag(t.ID-prev-1))
		prev = t.ID
	}
	for _, t := range tasks {
		blob = appendTstr(blob, t.Text)
	}
	d.write(blob[len(publicationMagic):], false)
	for _, t := range tasks {
		blob = binary.AppendUvarint(blob, uint64(len(t.Choices)))
		for _, c := range t.Choices {
			blob = appendTstr(blob, c)
		}
	}
	for _, t := range tasks {
		blob = binary.AppendUvarint(blob, uint64(t.Truth+1))
	}
	for _, t := range tasks {
		blob = binary.AppendUvarint(blob, uint64(t.TrueDomain+1))
	}
	d.write(blob[len(publicationMagic):], false)
	if err := linked(); err != nil {
		return nil, err
	}
	blob, err := appendVectors(blob, tasks, m)
	if err != nil {
		return nil, err
	}
	body := blob[len(publicationMagic):]
	d.write(body, true)
	if len(deflateMagic)+uvarintLen(uint64(len(body)))+len(d.out) >= len(blob) {
		return blob, nil
	}
	return append(binary.AppendUvarint([]byte(deflateMagic), uint64(len(body))), d.out...), nil
}

// appendVectors appends a task set's last two columns: each task's vector
// ref, then the table of distinct vectors in order of first appearance,
// each under its logged encoding (appendVector).
func appendVectors(blob []byte, tasks []*model.Task, m int) ([]byte, error) {
	refs := make(map[string]int)  // by encoding
	table := make([]byte, 0, 256) // room for most publications' distinct vectors
	domain := wal.SparseFloats{K: make([]int, 0, m), V: make([]float64, 0, m)}
	for _, t := range tasks {
		if len(t.Domain) != m {
			return nil, fmt.Errorf("core: publication: task %d has a domain vector of size %d, want %d",
				t.ID, len(t.Domain), m)
		}
		start := len(table)
		var err error
		if table, err = appendVector(table, &domain, t.Domain, m); err != nil {
			return nil, fmt.Errorf("core: publication: task %d: %w", t.ID, err)
		}
		ref, seen := refs[string(table[start:])]
		if seen {
			table = table[:start]
		} else {
			ref = len(refs)
			refs[string(table[start:])] = ref
		}
		blob = binary.AppendUvarint(blob, uint64(ref))
	}
	return append(blob, table...), nil
}

// appendVector appends a domain vector's logged encoding, a
// wal.SparseFloats against +0 built in sparse: the bytes a DPC1 table entry
// holds for the vector, and the key a domainTable holds it under.
func appendVector(b []byte, sparse *wal.SparseFloats, v []float64, m int) ([]byte, error) {
	*sparse = wal.SparseOf(*sparse, v, 0)
	return wal.AppendSparseFloats(b, *sparse, m, 0)
}

// domainTable holds one publication's distinct domain vectors, each once,
// under its logged encoding (appendVector), so two tasks share a vector
// exactly when the record holds the same bytes for both. The key is bits,
// never ==: −0, a denormal and the uniform "domain unknown" vector each
// keep their own. Publish's linkers share one table; replay's decoder
// needs none, since the record's tasks share its table's entries, and the
// replayed Publish interns those. It is dropped once its tasks are built,
// so a campaign holds m floats per distinct vector, not per task. Sharing
// is safe because nothing writes an element of a task's Domain
// (TestOneReaderOneWriter).
type domainTable struct {
	mu  sync.Mutex
	vec map[string]model.DomainVector
}

// intern returns the vector held under key, v's encoding. On a miss it
// holds v itself when keep is set and a copy otherwise (v is a workspace's
// scratch), so a hit allocates nothing.
func (dt *domainTable) intern(key []byte, v model.DomainVector, keep bool) model.DomainVector {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if held, ok := dt.vec[string(key)]; ok {
		return held
	}
	if !keep {
		v = slices.Clone(v)
	}
	dt.vec[string(key)] = v
	return v
}

var errNotCanonical = errors.New("stream is not the packing of its body")

// The refusals of the publications earlier builds logged, each naming the
// last commit that reads it: LZW-packed before the pinned DEFLATE writer,
// task by task before the column layout, in fixed codes before DPC4.
var (
	errFormatLZW   = errors.New("DPB2 (LZW-packed) publication: this build reads DPC1 and DPC4 only; a3e04fd is the last commit that reads it")
	errFormatRows  = errors.New("DPB1/DPB3 (row-major) publication: this build reads DPC1 and DPC4 only; 7137417 is the last commit that reads it")
	errFormatFixed = errors.New("DPC3 (fixed-Huffman) publication: this build reads DPC1 and DPC4 only; 0b7dcec is the last commit that reads it")
)

// inflater is a pooled reader of DPC4 streams: compress/flate's, reset onto
// src.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // a flate.Resetter
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.zr = flate.NewReader(&in.src)
	return in
}}

// unpackPublication inflates a DPC4 blob into the DPC1 blob it stands for,
// refusing every blob the pinned writer would not have written. Inflation
// stops one byte past the stated length, and the buffer grows only as bytes
// inflate, never to that length up front, so a hostile length buys no
// memory.
func unpackPublication(blob []byte) ([]byte, error) {
	c := wal.NewCursor(blob[len(deflateMagic):])
	n := c.Uvarint()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if n > uint64(maxPackedBody) {
		return nil, fmt.Errorf("packed body of %d bytes is over the %d a publication holds", n, maxPackedBody)
	}
	stream := blob[len(blob)-c.Len():]
	in := inflaters.Get().(*inflater)
	defer func() {
		in.src.Reset(nil) // the pool keeps no reference to the blob
		inflaters.Put(in)
	}()
	in.src.Reset(stream)
	if err := in.zr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.WriteString(publicationMagic)
	if _, err := out.ReadFrom(io.LimitReader(in.zr, int64(n)+1)); err != nil {
		return nil, fmt.Errorf("packed body: %w", err)
	}
	dpc1 := out.Bytes()
	body := dpc1[len(publicationMagic):]
	switch {
	case uint64(len(body)) > n:
		return nil, fmt.Errorf("packed body inflates past the %d bytes stated", n)
	case uint64(len(body)) < n:
		return nil, fmt.Errorf("packed body inflates to %d bytes, not the %d stated", len(body), n)
	case in.src.Len() > 0:
		return nil, fmt.Errorf("%d bytes follow the packed body's final block", in.src.Len())
	}
	if !packsTo(body, stream) {
		return nil, errNotCanonical
	}
	if len(blob) >= len(dpc1) {
		return nil, fmt.Errorf("packed publication of %d bytes is no shorter than the %d it packs", len(blob), len(dpc1))
	}
	return dpc1, nil
}

// packsTo reports whether stream is the pinned DEFLATE writer's output for
// body.
func packsTo(body, stream []byte) bool {
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	d.reset(make([]byte, 0, len(stream)+8))
	d.write(body, true)
	return bytes.Equal(d.out, stream)
}

// decodePublication parses a publish record's task set. It is the one
// reader of the record (replay's applyRecord), and it returns only tasks
// that carry an m-long domain vector, so replay never re-runs entity
// linking. A DPC4 blob unpacks to DPC1 and then reads as one.
func decodePublication(rec wal.Record, m int) ([]*model.Task, error) {
	blob, err := rec.Blob, error(nil)
	switch {
	case bytes.HasPrefix(blob, []byte(deflateMagic)):
		blob, err = unpackPublication(blob)
	case bytes.HasPrefix(blob, []byte("DPC3")):
		err = errFormatFixed
	case bytes.HasPrefix(blob, []byte("DPB2")):
		err = errFormatLZW
	case bytes.HasPrefix(blob, []byte("DPB1")), bytes.HasPrefix(blob, []byte("DPB3")):
		err = errFormatRows
	}
	var tasks []*model.Task
	if err == nil {
		tasks, err = decodeBinaryPublication(blob, m)
	}
	if err != nil {
		return nil, fmt.Errorf("publish record %d: %w", rec.Seq, err)
	}
	return tasks, nil
}

// decodeBinaryPublication parses a DPC1 blob stamped with m domains.
// Whatever it is given, it never panics. The n tasks, their choice slices
// and every string come from four allocations (a string is a substring of
// one copy of the blob, unless it held an escape), plus one m-long vector
// per table entry, which every task naming it shares. The ref
// column is read twice — checked and counted, then, once the table is
// built, resolved — so it needs no slice of its own. n and d are checked
// against the bytes remaining first, so a hostile count buys no memory the
// blob's own length does not bound.
func decodeBinaryPublication(blob []byte, m int) ([]*model.Task, error) {
	if !bytes.HasPrefix(blob, []byte(publicationMagic)) {
		return nil, fmt.Errorf("blob lacks magic %q", publicationMagic)
	}
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
	tasks := make([]*model.Task, n)
	prev := -1
	for i := range backing {
		t := &backing[i]
		tasks[i] = t
		step := d.Uvarint()
		// Wrapping arithmetic: an ID past int comes out negative.
		if t.ID = prev + 1 + (int(step>>1) ^ -int(step&1)); t.ID < 0 && d.Err() == nil {
			d.Failf("task %d: ID out of range", i)
		}
		prev = t.ID
	}
	for _, t := range tasks {
		t.Text = d.tstr()
	}
	// The choices column is counted on a copy of the cursor, then read into
	// one slab: a read that fails does so where the count stopped, or sooner.
	probe, choices := d.Cursor, 0
	for range tasks {
		l := probe.Count(1)
		for c := 0; c < l; c++ {
			probe.Terminated()
		}
		choices += l
	}
	slab := make([]string, choices)
	for _, t := range tasks {
		if l := d.Count(1); l > 0 {
			t.Choices, slab = slab[:l:l], slab[l:]
			for c := range t.Choices {
				t.Choices[c] = d.tstr()
			}
		}
	}
	for _, t := range tasks {
		t.Truth = d.Int() - 1
	}
	for _, t := range tasks {
		t.TrueDomain = d.Int() - 1
	}
	refs, entries := d.Off(), uint64(0)
	for i := range tasks {
		if ref := d.Uvarint(); ref > entries {
			d.Failf("task %d names vector %d of %d", i, ref, entries)
		} else if ref == entries {
			entries++
		}
	}
	if entries > uint64(d.Len()) {
		d.Failf("table of %d vectors exceeds the %d bytes remaining", entries, d.Len())
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	refCol := wal.NewCursor(body[refs:d.Off()])
	vectors := make([]model.DomainVector, entries)
	seen := make(map[string]struct{}, entries) // by encoding, in d.s
	domain := wal.SparseFloats{K: make([]int, 0, m), V: make([]float64, 0, m)}
	for e := range vectors {
		start := d.Off()
		domain = d.SparseFloats(domain, m, 0)
		if d.Err() != nil {
			return nil, fmt.Errorf("vector %d: %w", e, d.Err())
		}
		key := d.s[start:d.Off()]
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("vector %d repeats an earlier one", e)
		}
		seen[key] = struct{}{}
		vectors[e] = make(model.DomainVector, m)
		if err := domain.Scatter(vectors[e]); err != nil {
			return nil, fmt.Errorf("vector %d: %w", e, err)
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	for _, t := range tasks {
		t.Domain = vectors[refCol.Uvarint()]
	}
	return tasks, nil
}

// pubDecoder is the shared cursor plus the one pop the publication keeps
// to itself: a terminated string that is a substring of s, one copy of the
// bytes the cursor walks, unless it held an escape.
type pubDecoder struct {
	wal.Cursor
	s string
}

// tstr pops a terminated string. An escape byte that does not open 01 01
// or 01 02 survives unescape and so re-escapes to a longer string.
func (d *pubDecoder) tstr() string {
	raw := d.Terminated()
	if d.Err() != nil {
		return ""
	}
	end := d.Off() - 1 // the terminator's
	s := d.s[end-len(raw) : end]
	if bytes.IndexByte(raw, 1) < 0 {
		return s
	}
	if s = unescape.Replace(s); tstrLen(s) != len(raw)+1 {
		d.Failf("bad escape in the string ending at byte %d", end)
		return ""
	}
	return s
}
