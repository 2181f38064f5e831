// Publications: the durable record of a campaign's task set.
//
// Publish logs the tasks as they stand after DVE — every task carrying its
// m-long domain vector — as one KindPublish record, so no boot or wake
// re-runs entity linking against a knowledge base that may have changed
// since. Each of those replays the log and reads this record again, so its
// size is most of a young campaign's disk bill and its decode most of a
// wake.
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
// byte string: the one reader (decodeBinaryPublication) accepts nothing the
// encoder would not write, nor a task Publish would refuse, and checks
// every count against the bytes that remain before it allocates.
//
// A publication is mostly its template — a campaign is a batch of questions
// cut from a few sentence patterns — so the record Publish logs is that
// blob packed whenever packing makes it shorter:
//
//	magic "DPC4" | body length uvarint | DEFLATE(body)
//
// where body is the DPC1 blob after its magic and DEFLATE is written by
// deflate.go's writer and read with compress/flate's reader. A DPC4 record
// is accepted by its body, not by its stream's spelling: compress/flate
// must inflate it to the stated length — no more than a publication may
// hold — with no bytes after the final block, the result must be a valid
// DPC1 body, and the record must be shorter than that body's DPC1 blob. So
// what the decoder accepts decodes to one state, whichever writer spelled
// the stream. A DPC1 record is read whatever its size; a publish
// record under any other magic is refused as damage. A change to either
// layout bumps the log's format version (docs/internal/wal).
package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
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

// headSize returns how many bytes a batch's DPC1 blob takes before its ref
// column — exact — and checks that the whole blob fits one log record. It
// bounds the refs and the table as if every task added a vector listing all
// m entries, so it needs no domain vector and holds a batch to the record
// size before DVE runs.
func headSize(b *Batch) (int, error) {
	vector := maxVectorLen(b.m)
	ref := uvarintLen(uint64(b.n))
	head := len(publicationMagic) + uvarintLen(uint64(b.m)) + uvarintLen(uint64(b.n))
	prev := -1
	for p := 0; p < b.n; p++ {
		t := b.task(p)
		head += uvarintLen(zigzag(t.ID-prev-1)) + tstrLen(t.Text) + uvarintLen(uint64(len(t.Choices)))
		prev = t.ID
		for _, c := range t.Choices {
			head += tstrLen(c)
		}
		head += uvarintLen(uint64(t.Truth+1)) + uvarintLen(uint64(t.TrueDomain+1))
	}
	if size := head + b.n*(ref+vector); size > wal.MaxBlob {
		return 0, fmt.Errorf("core: publication may encode to %d bytes, over the %d a log record holds; publish fewer or shorter tasks",
			size, wal.MaxBlob)
	}
	return head, nil
}

// maxVectorLen is the longest encoding of a vector over m domains: one
// listing all m entries.
func maxVectorLen(m int) int {
	n := uvarintLen(uint64(m))
	for k := 0; k < m; k++ {
		n += uvarintLen(uint64(k)) + 8
	}
	return n
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

// packRecord encodes a batch's DPC1 blob and, given a writer d, packs it:
// it returns the record Publish logs, the blob packed as DPC4 when that is
// the shorter (nil without d). The columns DVE does not touch — IDs, texts,
// choices, truths — are encoded first, in a buffer of exactly their size
// (b.head), and d advances over them while the linkers run; linked waits
// for the linkers, and only the ref and table columns follow it. built receives
// the finished blob before d packs its last bytes. So the record is a pure
// function of the tasks, as replay needs. It fails on linked's error or on
// a task the format cannot express: a negative ID, a truth or true domain
// below NoTruth, or a domain vector that is not m long.
//
//docs:deterministic
func packRecord(b *Batch, d *deflater, linked func() error, built func(dpc1 []byte)) ([]byte, error) {
	blob := make([]byte, 0, b.head)
	blob = append(blob, publicationMagic...)
	blob = binary.AppendUvarint(blob, uint64(b.m))
	blob = binary.AppendUvarint(blob, uint64(b.n))
	if d != nil {
		d.reset(make([]byte, 0, b.head/4))
	}
	prev := -1
	for p := 0; p < b.n; p++ {
		t := b.task(p)
		if t.ID < 0 || t.Truth < model.NoTruth || t.TrueDomain < model.NoTruth {
			return nil, fmt.Errorf("core: publication: task %d (truth %d, true domain %d) has a negative field",
				t.ID, t.Truth, t.TrueDomain)
		}
		blob = binary.AppendUvarint(blob, zigzag(t.ID-prev-1))
		prev = t.ID
	}
	for p := 0; p < b.n; p++ {
		blob = appendTstr(blob, b.task(p).Text)
	}
	if d != nil {
		d.write(blob[len(publicationMagic):], false)
	}
	for p := 0; p < b.n; p++ {
		choices := b.task(p).Choices
		blob = binary.AppendUvarint(blob, uint64(len(choices)))
		for _, c := range choices {
			blob = appendTstr(blob, c)
		}
	}
	for p := 0; p < b.n; p++ {
		blob = binary.AppendUvarint(blob, uint64(b.task(p).Truth+1))
	}
	for p := 0; p < b.n; p++ {
		blob = binary.AppendUvarint(blob, uint64(b.task(p).TrueDomain+1))
	}
	if d != nil {
		d.write(blob[len(publicationMagic):], false)
	}
	if err := linked(); err != nil {
		return nil, err
	}
	blob, err := appendVectors(blob, b)
	if err != nil {
		return nil, err
	}
	built(blob)
	if d == nil {
		return nil, nil
	}
	body := blob[len(publicationMagic):]
	d.write(body, true)
	if len(deflateMagic)+uvarintLen(uint64(len(body)))+len(d.out) >= len(blob) {
		return blob, nil
	}
	return append(binary.AppendUvarint([]byte(deflateMagic), uint64(len(body))), d.out...), nil
}

// appendVectors appends a batch's last two columns: each task's vector ref,
// then the table of distinct vectors in order of first appearance, each
// under its logged encoding (appendVector). A first pass numbers the
// distinct encodings and sums the two columns' lengths; the second writes
// them into a copy of the blob of exactly its length, which is the task
// table's slab.
func appendVectors(blob []byte, b *Batch) ([]byte, error) {
	refs := make(map[string]int) // by encoding
	domain := wal.SparseFloats{K: make([]int, 0, b.m), V: make([]float64, 0, b.m)}
	key := make([]byte, 0, maxVectorLen(b.m))
	column, table := 0, 0 // their lengths
	for p, v := range b.domains {
		if len(v) != b.m {
			return nil, fmt.Errorf("core: publication: task %d has a domain vector of size %d, want %d",
				b.task(p).ID, len(v), b.m)
		}
		var err error
		if key, err = appendVector(key[:0], &domain, v, b.m); err != nil {
			return nil, fmt.Errorf("core: publication: task %d: %w", b.task(p).ID, err)
		}
		ref, seen := refs[string(key)]
		if !seen {
			ref = len(refs)
			refs[string(key)] = ref
			table += len(key)
		}
		column += uvarintLen(uint64(ref))
	}
	whole := make([]byte, len(blob)+column+table)
	at, entry, entries := copy(whole, blob), len(blob)+column, 0
	for _, v := range b.domains {
		key, _ = appendVector(key[:0], &domain, v, b.m) // encoded without error above
		ref := refs[string(key)]
		at += binary.PutUvarint(whole[at:], uint64(ref))
		if ref == entries {
			entry += copy(whole[entry:], key)
			entries++
		}
	}
	return whole, nil
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
// keep their own. Publish's linkers share one table. It is dropped once the
// record is packed; the campaign's tasks share the
// decoded record's table entries, so it holds m floats per distinct
// vector, not per task. Sharing is safe because nothing writes an element
// of a task's Domain (TestOneReaderOneWriter).
type domainTable struct {
	mu  sync.Mutex
	vec map[string]model.DomainVector
}

// validateVector is the check every distinct vector of a publication
// passes once, in its decode, on a publish and on a wake alike. A variable
// so a test can count the checks.
var validateVector = model.DomainVector.Validate

// intern returns the vector held under key, v's encoding. On a miss it
// holds v itself when given is set — the requester's — and otherwise a copy
// (v is a workspace's scratch), so a hit allocates nothing.
func (dt *domainTable) intern(key []byte, v model.DomainVector, given bool) model.DomainVector {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if held, ok := dt.vec[string(key)]; ok {
		return held
	}
	if !given {
		v = slices.Clone(v)
	}
	dt.vec[string(key)] = v
	return v
}

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

// maxInflation bounds what one byte of a DEFLATE stream inflates to: a
// 258-byte match takes at least two bits.
const maxInflation = 1032

// unpackPublication inflates a DPC4 blob into the DPC1 blob it stands for,
// refusing a stream that is not exactly the stated body. The blob is
// inflated once, into a buffer sized from the stated length — no larger
// than the stream can inflate to, so a hostile length buys no memory the
// record's own bytes do not bound — which the task table then holds as its
// slab.
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
	dpc1 := make([]byte, len(publicationMagic), len(publicationMagic)+int(min(n, uint64(len(stream))*maxInflation)))
	copy(dpc1, publicationMagic)
	got, err := io.ReadFull(in.zr, dpc1[len(dpc1):cap(dpc1)])
	dpc1 = dpc1[:len(dpc1)+got]
	switch err {
	case nil: // the buffer is full: the stream must end here
		var past [1]byte
		for k := 0; k == 0 && err == nil; {
			if k, err = in.zr.Read(past[:]); k > 0 {
				return nil, fmt.Errorf("packed body inflates past the %d bytes stated", n)
			}
		}
	case io.ErrUnexpectedEOF: // short of the stated length, which the switch below names
		err = io.EOF
	}
	if err != io.EOF {
		return nil, fmt.Errorf("packed body: %w", err)
	}
	switch body := len(dpc1) - len(publicationMagic); {
	case uint64(body) < n:
		return nil, fmt.Errorf("packed body inflates to %d bytes, not the %d stated", body, n)
	case in.src.Len() > 0:
		return nil, fmt.Errorf("%d bytes follow the packed body's final block", in.src.Len())
	case len(blob) >= len(dpc1):
		return nil, fmt.Errorf("packed publication of %d bytes is no shorter than the %d it packs", len(blob), len(dpc1))
	}
	return dpc1, nil
}

// decodePublication parses a publish record into the campaign's task
// table. It is the one reader of the record (replay's applyRecord); a DPC4
// blob unpacks to DPC1 and then reads as one, any other blob is copied out
// of the segment it was read from and must be DPC1. The segment's format
// version is the record's: a magic neither names is damage.
func decodePublication(rec wal.Record, m int) (*publication, error) {
	blob, err := rec.Blob, error(nil)
	if bytes.HasPrefix(blob, []byte(deflateMagic)) {
		blob, err = unpackPublication(blob)
	} else {
		// The record's blob lies in the log segment it was read from: the
		// slab owns a copy, or it would keep the whole segment alive.
		blob = append(make([]byte, 0, len(blob)), blob...)
	}
	var pub *publication
	if err == nil {
		pub, err = decodeBinaryPublication(blob, m)
	}
	if err != nil {
		return nil, fmt.Errorf("publish record %d: %w", rec.Seq, err)
	}
	return pub, nil
}

// publication is a decoded DPC1 blob: the task table over its body, the
// task IDs in their order, the distinct domain vectors, and where the ref
// column lies in the body, which the install reads once.
type publication struct {
	taskTable
	taskOrder
	refs    int
	vectors []model.DomainVector
}

// decodeBinaryPublication builds the task table of a DPC1 blob stamped
// with m domains. It is the one function that accepts one, for a publish
// and for a wake, so both accept the same records whatever a caller does
// to its tasks after CheckEach: it refuses what CheckEach refuses, with
// its error, where it reads the field — ℓ, a truth, a true domain — and
// validates each distinct vector once, for the first task naming it. A
// fault in the format is reported first; then the first task's fault in
// publication order, a repeated ID before any later invalid task.
//
// Whatever it is given, it never panics. The table holds the blob's body
// itself: the caller never writes blob again. The table, the ID order and
// each entry's first ref are five allocations, six when the IDs do not
// ascend and seven when a truth takes more than a byte, plus one m-long
// vector per table entry, which every task naming it shares. n and d are
// checked against the bytes remaining first, so a hostile count buys no
// memory the blob's own length does not bound.
func decodeBinaryPublication(blob []byte, m int) (*publication, error) {
	if !bytes.HasPrefix(blob, []byte(publicationMagic)) {
		return nil, fmt.Errorf("blob lacks magic %q", publicationMagic)
	}
	body := blob[len(publicationMagic):]
	d := wal.NewCursor(body)
	if stamped := d.Uvarint(); d.Err() == nil && stamped != uint64(m) {
		return nil, fmt.Errorf("publication has %d domains, want %d", stamped, m)
	}
	n := d.Count(minTaskBytes)
	if d.Err() != nil {
		return nil, d.Err()
	}
	pub := &publication{taskTable: taskTable{body: body, text: make([]int32, n), choices: make([]int32, n)}}
	ids := make([]int, n)
	prev := -1
	for i := range ids {
		step := d.Uvarint()
		// Wrapping arithmetic: an ID past int comes out negative.
		if ids[i] = prev + 1 + (int(step>>1) ^ -int(step&1)); ids[i] < 0 && d.Err() == nil {
			d.Failf("task %d: ID out of range", i)
		}
		prev = ids[i]
	}
	pub.taskOrder = orderOf(ids)
	// fault is the first task position with a fault, and why its fault: the
	// first repeated ID until a task before it has one of its own.
	fault, why := pub.firstRepeat(), error(nil)
	if fault < n {
		why = fmt.Errorf("core: duplicate task ID %d", ids[fault])
	}
	for i := range pub.text {
		pub.text[i] = int32(d.Off())
		checkTstr(&d)
	}
	for i := range pub.choices {
		pub.choices[i] = int32(d.Off())
		ell := d.Count(1)
		if ell < 2 && i < fault {
			fault, why = i, fmt.Errorf("model: task %d has %d choices, want >= 2", ids[i], ell)
		}
		for ; ell > 0; ell-- {
			checkTstr(&d)
		}
	}
	pub.truths = d.Off()
	for i := range n {
		at, truth := d.Off(), d.Int()-1
		if d.Off()-at > 1 && pub.wide == nil && d.Err() == nil {
			// The first truth of a byte more: every truth so far took one.
			pub.wide = make([]int32, n)
			for j := range i {
				pub.wide[j] = int32(body[pub.truths+j]) - 1
			}
		}
		switch ell := pub.ell(i); {
		case truth != model.NoTruth && truth >= ell:
			if i < fault {
				fault, why = i, fmt.Errorf("model: task %d truth %d out of range [0,%d)", ids[i], truth, ell)
			}
		case pub.wide != nil:
			pub.wide[i] = int32(truth) // below ℓ, which the body's length bounds
		}
	}
	for i := range n {
		if trueDomain := d.Int() - 1; trueDomain != model.NoTruth && trueDomain >= m && i < fault {
			fault, why = i, fmt.Errorf("model: task %d true domain %d out of range [0,%d)", ids[i], trueDomain, m)
		}
	}
	pub.refs = d.Off()
	first := make([]int32, 0, n) // by table entry, the first task naming it
	for i := range n {
		if ref := d.Uvarint(); ref > uint64(len(first)) {
			d.Failf("task %d names vector %d of %d", i, ref, len(first))
		} else if ref == uint64(len(first)) {
			first = append(first, int32(i))
		}
	}
	if len(first) > d.Len() {
		d.Failf("table of %d vectors exceeds the %d bytes remaining", len(first), d.Len())
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	pub.vectors = make([]model.DomainVector, len(first))
	seen := make(map[string]struct{}, len(first)) // by encoding, in body
	domain := wal.SparseFloats{K: make([]int, 0, m), V: make([]float64, 0, m)}
	for e, p := range first {
		start := d.Off()
		domain = d.SparseFloats(domain, m, 0)
		if d.Err() != nil {
			return nil, fmt.Errorf("vector %d: %w", e, d.Err())
		}
		key := sealed(body[start:d.Off()])
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("vector %d repeats an earlier one", e)
		}
		seen[key] = struct{}{}
		pub.vectors[e] = make(model.DomainVector, m)
		if err := domain.Scatter(pub.vectors[e]); err != nil {
			return nil, fmt.Errorf("vector %d: %w", e, err)
		}
		if int(p) < fault {
			if err := validateVector(pub.vectors[e], m); err != nil {
				fault, why = int(p), fmt.Errorf("model: task %d: %w", ids[p], err)
			}
		}
	}
	if err := d.End(); err != nil {
		return nil, err
	}
	if why != nil {
		return nil, why
	}
	return pub, nil
}

// checkTstr pops a terminated string and checks its escapes: an escape
// byte that does not open 01 01 or 01 02 survives unescape and so
// re-escapes to a longer string.
func checkTstr(d *wal.Cursor) {
	raw := d.Terminated()
	if d.Err() != nil || bytes.IndexByte(raw, 1) < 0 {
		return
	}
	if tstrLen(unescape.Replace(string(raw))) != len(raw)+1 {
		d.Failf("bad escape in the string ending at byte %d", d.Off()-1)
	}
}
