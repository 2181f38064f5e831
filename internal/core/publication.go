// Publications: the durable record of a campaign's task set.
//
// Publish logs the tasks as they stand after DVE — every task carrying its
// m-long domain vector — as one KindPublish record, so no boot, wake or
// snapshot pass re-runs entity linking against a knowledge base that may
// have changed since. Every one of those is a scratch replay that reads
// this record again, so its size is most of a young campaign's disk bill
// and its decode most of a wake.
//
// The task set is encoded canonical and binary, in the style of the state
// snapshot and the KindSeed blob:
//
//	magic "DPB1" | m uvarint | n uvarint | n × task
//	task:  id uvarint | text str | ℓ uvarint | ℓ × choice str
//	       | truth+1 uvarint | trueDomain+1 uvarint
//	       | nnz uvarint | nnz × (domain index uvarint | 8 raw LE bytes)
//	str:   len uvarint | bytes
//
// An integer is a minimal uvarint; truth and trueDomain are stored plus
// one, so NoTruth is 0. A domain vector is a wal.SparseFloats against +0, so
// −0, denormals and the uniform "domain unknown" vector round-trip bit for
// bit (presence is by bits; the task's support is r_k > 0,
// model.DomainVector.Has, so a stored −0 is outside it). One task set has
// one byte string: the decoder accepts nothing the encoder would not write
// and checks every count against the bytes that remain before it allocates.
//
// A publication is mostly its template — a campaign is a batch of questions
// cut from a few sentence patterns — so the record Publish logs is that
// blob packed whenever packing makes it shorter:
//
//	magic "DPB3" | body length uvarint | DEFLATE(body)
//
// where body is the DPB1 blob after its magic and DEFLATE is the pinned
// writer of deflate.go, whose stream is a function of the body fixed by its
// rules, not by a toolchain; it is read with compress/flate's reader. So
// DPB3 is canonical too: the decoder refuses a stated length over what a
// publication may hold, a stream that inflates to another length or has
// bytes after its final block, one that is not the writer's output for its
// body, and a DPB3 blob no shorter than its DPB1
// (testdata/publication_dpb3.golden pins the writer's bytes). A DPB1 record
// is read whatever its size; a publish record under any other magic is
// refused, the LZW-packed one logged before DPB3 with an error naming the
// last commit that reads it (errFormatLZW).
package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"docs/internal/model"
	"docs/internal/wal"
)

const (
	// publicationMagic opens every unpacked binary publication blob and
	// deflateMagic every packed one. Versioned: a future layout bumps the
	// trailing byte.
	publicationMagic = "DPB1"
	deflateMagic     = "DPB3"
	// maxPackedBody is the longest body a packed blob may state: the body
	// of the largest DPB1 blob Publish accepts, which is the largest blob
	// one log record holds.
	maxPackedBody = wal.MaxBlob - len(publicationMagic)
)

// minTaskBytes is the least a task occupies in a blob: six one-byte
// uvarints around an empty text, no choices and an all-zero vector.
const minTaskBytes = 6

// checkPublicationSize refuses a task set whose DPB1 blob could be too
// large for one log record. It bounds the blob with every domain vector
// listing all m entries — exact for the header, the texts, the choices
// and every varint, an upper bound for the vectors — so it needs no domain
// vector and holds a batch to the record size before DVE runs.
func checkPublicationSize(tasks []*model.Task, m int) error {
	vector := uvarintLen(uint64(m))
	for k := 0; k < m; k++ {
		vector += uvarintLen(uint64(k)) + 8
	}
	size := len(publicationMagic) + uvarintLen(uint64(m)) + uvarintLen(uint64(len(tasks)))
	for _, t := range tasks {
		size += uvarintLen(uint64(t.ID)) + strLen(t.Text) + uvarintLen(uint64(len(t.Choices)))
		for _, c := range t.Choices {
			size += strLen(c)
		}
		size += uvarintLen(uint64(t.Truth+1)) + uvarintLen(uint64(t.TrueDomain+1)) + vector
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

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// packRecord returns the record Publish logs for a task set: its DPB1 blob,
// packed as DPB3 when that is the shorter. Chunk c, the publishChunk tasks
// from c·publishChunk, is encoded once linked(c) returns, its vectors set,
// and the pinned writer advances over the body behind it, so the record is
// a pure function of the tasks, as replay needs. It fails on linked's first
// error or on a task the format cannot express: a negative ID, a truth or
// true domain below NoTruth, or a domain vector that is not m long.
//
//docs:deterministic
func packRecord(tasks []*model.Task, m int, linked func(chunk int) error) ([]byte, error) {
	size := len(publicationMagic) + 2*binary.MaxVarintLen64
	for _, t := range tasks {
		size += 32 + len(t.Text)
		for _, c := range t.Choices {
			size += 1 + len(c)
		}
	}
	dpb1 := make([]byte, 0, size)
	dpb1 = append(dpb1, publicationMagic...)
	dpb1 = binary.AppendUvarint(dpb1, uint64(m))
	dpb1 = binary.AppendUvarint(dpb1, uint64(len(tasks)))
	d := deflaters.Get().(*deflater)
	defer releaseDeflater(d)
	d.reset(make([]byte, 0, size/4))
	var domain wal.SparseFloats // reused task to task
	for c := 0; c*publishChunk < len(tasks); c++ {
		if err := linked(c); err != nil {
			return nil, err
		}
		for _, t := range tasks[c*publishChunk : min((c+1)*publishChunk, len(tasks))] {
			if t.ID < 0 || t.Truth < model.NoTruth || t.TrueDomain < model.NoTruth {
				return nil, fmt.Errorf("core: publication: task %d (truth %d, true domain %d) has a negative field",
					t.ID, t.Truth, t.TrueDomain)
			}
			if len(t.Domain) != m {
				return nil, fmt.Errorf("core: publication: task %d has a domain vector of size %d, want %d",
					t.ID, len(t.Domain), m)
			}
			dpb1 = binary.AppendUvarint(dpb1, uint64(t.ID))
			dpb1 = appendStr(dpb1, t.Text)
			dpb1 = binary.AppendUvarint(dpb1, uint64(len(t.Choices)))
			for _, c := range t.Choices {
				dpb1 = appendStr(dpb1, c)
			}
			dpb1 = binary.AppendUvarint(dpb1, uint64(t.Truth+1))
			dpb1 = binary.AppendUvarint(dpb1, uint64(t.TrueDomain+1))
			var err error
			if dpb1, err = appendVector(dpb1, &domain, t.Domain, m); err != nil {
				return nil, fmt.Errorf("core: publication: task %d: %w", t.ID, err)
			}
		}
		d.write(dpb1[len(publicationMagic):], false)
	}
	body := dpb1[len(publicationMagic):]
	d.write(body, true)
	if len(deflateMagic)+uvarintLen(uint64(len(body)))+len(d.out) >= len(dpb1) {
		return dpb1, nil
	}
	return append(binary.AppendUvarint([]byte(deflateMagic), uint64(len(body))), d.out...), nil
}

// appendVector appends a domain vector's logged encoding, a
// wal.SparseFloats against +0 built in sparse: the bytes a DPB1 record holds
// for the vector, and the key a domainTable holds it under.
func appendVector(b []byte, sparse *wal.SparseFloats, v []float64, m int) ([]byte, error) {
	*sparse = wal.SparseOf(*sparse, v, 0)
	return wal.AppendSparseFloats(b, *sparse, m, 0)
}

// domainTable holds one publication's distinct domain vectors, each once,
// under its logged encoding (appendVector), so two tasks share a vector
// exactly when the record holds the same bytes for both. The key is bits,
// never ==: −0, a denormal and the uniform "domain unknown" vector each
// keep their own. Publish's linkers share one table, and replay's decoder
// keys a map of its own the same way before the replayed Publish interns
// again; each is dropped once its tasks are built, so a campaign holds m
// floats per distinct vector, not per task. Sharing is safe because nothing
// writes an element of a task's Domain (TestOneReaderOneWriter).
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

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

var errNotCanonical = errors.New("stream is not the packing of its body")

// errFormatLZW refuses a publication packed with LZW, which builds logged
// before the pinned DEFLATE writer.
var errFormatLZW = errors.New("DPB2 (LZW-packed) publication: this build reads DPB1 and DPB3 only; a3e04fd is the last commit that reads it")

// inflater is a pooled reader of DPB3 streams: compress/flate's, reset onto
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

// unpackPublication inflates a DPB3 blob into the DPB1 blob it stands for,
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
	dpb1 := out.Bytes()
	body := dpb1[len(publicationMagic):]
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
	if len(blob) >= len(dpb1) {
		return nil, fmt.Errorf("packed publication of %d bytes is no shorter than the %d it packs", len(blob), len(dpb1))
	}
	return dpb1, nil
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
// linking. A DPB3 blob unpacks to DPB1 and then reads as one.
func decodePublication(rec wal.Record, m int) ([]*model.Task, error) {
	blob, err := rec.Blob, error(nil)
	switch {
	case bytes.HasPrefix(blob, []byte(deflateMagic)):
		blob, err = unpackPublication(blob)
	case bytes.HasPrefix(blob, []byte("DPB2")):
		err = errFormatLZW
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

// decodeBinaryPublication parses a DPB1 blob stamped with m domains.
// Whatever it is given, it never panics. The n tasks and every string come
// from three allocations (the strings are substrings of one copy of the
// blob), plus one choice slice a task and one m-long vector per distinct
// vector encoding: tasks whose logged vectors are byte-equal share one, found
// in a table keyed by those bytes where the blob's copy holds them, which is
// dropped on return. n is checked against the bytes remaining first, so a
// hostile count buys no memory the blob's own length does not bound.
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
	vectors := make(map[string]model.DomainVector) // by encoding, in d.s
	var domain wal.SparseFloats                    // reused task to task
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
		start := d.Off()
		domain = d.SparseFloats(domain, m, 0)
		if d.Err() != nil {
			return nil, fmt.Errorf("task %d: %w", t.ID, d.Err())
		}
		key := d.s[start:d.Off()]
		v, ok := vectors[key]
		if !ok {
			v = make(model.DomainVector, m)
			if err := domain.Scatter(v); err != nil {
				return nil, fmt.Errorf("task %d: %w", t.ID, err)
			}
			vectors[key] = v
		}
		t.Domain = v
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
