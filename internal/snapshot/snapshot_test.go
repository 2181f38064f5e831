package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"docs/internal/wal"
)

// sampleBaseQ is the quality the sample's vectors are held against.
const sampleBaseQ = 0.7

// sparse is the sparse form of a dense vector against base.
func sparse(base float64, dense ...float64) wal.SparseFloats {
	return wal.SparseOf(wal.SparseFloats{}, dense, base)
}

func sampleState() *State {
	return &State{
		Seq:   41,
		M:     3,
		BaseQ: sampleBaseQ,
		TaskStates: []TaskState{{
			ID:   0,
			MHat: [][]float64{{1, 0.5}, {0.25, 1}},
			S:    []float64{0.25, 0.75},
		}},
		Workers: []WorkerStats{
			{ID: "v"}, // a worker still at the defaults lists nothing
			{ID: "w", Q: sparse(sampleBaseQ, 0.9, 0.7, 0.5), U: sparse(0, 2, 0, 1)},
		},
	}
}

// TestBitsExactness: the float codec must round-trip every bit pattern,
// including negative zero, denormals, NaN payloads and values that decimal
// formatting would mangle — in a task state's raw floats, and in a
// statistics vector whichever value it is held against (the default itself
// is the one pattern a vector does not list, and it comes back all the
// same).
func TestBitsExactness(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 3.0, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 0.1 + 0.2, math.Nextafter(1, 2), math.Inf(-1), 0.7,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc)}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d values, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s value %d: %x != %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	for _, base := range vals {
		st := &State{M: len(vals), BaseQ: base,
			TaskStates: []TaskState{{ID: 1, MHat: [][]float64{vals}, S: vals}},
			Workers:    []WorkerStats{{ID: "w", Q: sparse(base, vals...), U: sparse(0, vals...)}}}
		data, err := Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		same("base", []float64{back.BaseQ}, []float64{base})
		same("M̂", back.TaskStates[0].MHat[0], vals)
		same("s", back.TaskStates[0].S, vals)
		q, u := make([]float64, back.M), make([]float64, back.M)
		for k := range q {
			q[k] = back.BaseQ
		}
		if err := back.Workers[0].Q.Scatter(q); err != nil {
			t.Fatal(err)
		}
		if err := back.Workers[0].U.Scatter(u); err != nil {
			t.Fatal(err)
		}
		same("q", q, vals)
		same("u", u, vals)
		if listed := len(back.Workers[0].Q.K); listed != len(vals)-1 {
			t.Fatalf("base %x: q lists %d of %d entries, want all but the default", math.Float64bits(base), listed, len(vals))
		}
	}
}

// TestEncodeDecodeRoundTrip pins the file image: decode(encode(state))
// must reproduce the state exactly and re-encode to the same bytes, and
// Write/Read must agree with it.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for name, st := range map[string]*State{"sample": sampleState(), "empty": {}} {
		data, err := Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("%s: round trip mismatch:\n%+v\n%+v", name, st, back)
		}
		again, err := Encode(back)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encoding the decoded state changed the bytes (err %v)", name, err)
		}

		dir := t.TempDir()
		if err := Write(dir, st); err != nil {
			t.Fatal(err)
		}
		back, err = Read(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("%s: Write/Read mismatch", name)
		}
	}
}

// TestEncodeRejectsInexpressible: Encode refuses a State the format cannot
// hold instead of writing bytes Decode would read back differently.
func TestEncodeRejectsInexpressible(t *testing.T) {
	cases := map[string]func(*State){
		"negative task id":     func(st *State) { st.TaskStates[0].ID = -7 },
		"negative m":           func(st *State) { st.M = -1 },
		"ragged mhat":          func(st *State) { st.TaskStates[0].MHat[1] = []float64{1} },
		"no choices":           func(st *State) { st.TaskStates[0] = TaskState{ID: 0} },
		"no rows":              func(st *State) { st.TaskStates[0].MHat = nil },
		"default entry listed": func(st *State) { st.Workers[1].Q.V[0] = sampleBaseQ },
		"zero weight listed":   func(st *State) { st.Workers[1].U.V[1] = 0 },
		"index at m":           func(st *State) { st.Workers[1].Q.K[1] = 3 },
		"index out of order":   func(st *State) { st.Workers[1].U.K[0] = 2 },
		"ragged vector":        func(st *State) { st.Workers[0].Q.K = append(st.Workers[0].Q.K, 0) },
	}
	for name, mutate := range cases {
		st := sampleState()
		mutate(st)
		if data, err := Encode(st); err == nil {
			t.Fatalf("%s: encoded to %d bytes", name, len(data))
		}
	}
}

// TestReadAbsent: no snapshot is (nil, nil), not an error.
func TestReadAbsent(t *testing.T) {
	st, err := Read(t.TempDir())
	if st != nil || err != nil {
		t.Fatalf("Read on empty dir = (%v, %v), want (nil, nil)", st, err)
	}
}

// reframe wraps a (mutated) payload in a valid frame, so the damage
// reaches the payload decoder instead of stopping at the CRC.
func reframe(payload []byte) []byte {
	return wal.EncodeFrame([]byte(magic), payload)
}

// TestDecodeRejectsDamage: every damage shape — every single-byte
// truncation, every single-bit flip, header rot, trailing garbage, an older
// format's magic, and CRC-valid payloads that are not canonical — must
// reject with ErrCorrupt, never decode to a different state and never panic.
func TestDecodeRejectsDamage(t *testing.T) {
	data, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	payload := data[len(magic)+8:]
	cases := map[string][]byte{
		"trailing garbage": append(append([]byte(nil), data...), make([]byte, 64)...),
		"second frame":     append(append([]byte(nil), data...), data[len(magic):]...),
		"empty":            nil,
		"old magic":        append([]byte("DOCSSNP3"), data[len(magic):]...),
		"previous magic":   append([]byte("DOCSSNP4"), data[len(magic):]...),
		// CRC-valid frames around payloads Encode would never produce.
		"payload cut short":     reframe(payload[:len(payload)-1]),
		"payload trailing byte": reframe(append(append([]byte(nil), payload...), 0)),
		"overlong varint":       reframe(append([]byte{0x80 | 41, 0x00}, payload[1:]...)),
		"count of 2^63":         reframe(append(append([]byte(nil), payload[:10]...), binary.AppendUvarint(nil, 1<<63)...)), // the task-state count, after seq | m | baseQ
	}
	// CRC-valid payloads holding a statistics vector Encode refuses to
	// write, or a task state of no rows: each must be refused on the way in
	// as it is on the way out.
	le := func(f float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)) }
	wQ := append(append([]byte{1, 'w', 2, 0}, le(0.9)...), append([]byte{2}, le(0.5)...)...) // worker w's q: entries 0 and 2
	if !bytes.Contains(payload, wQ) {
		t.Fatal("the sample's worker vector is not where the non-canonical cases expect it")
	}
	swap := func(with ...[]byte) []byte {
		return reframe(bytes.Replace(payload, wQ, bytes.Join(with, nil), 1))
	}
	cases["default-valued entry listed"] = swap([]byte{1, 'w', 2, 0}, le(0.9), []byte{2}, le(sampleBaseQ))
	cases["index at m"] = swap([]byte{1, 'w', 2, 0}, le(0.9), []byte{3}, le(0.5))
	cases["index out of order"] = swap([]byte{1, 'w', 2, 2}, le(0.5), []byte{0}, le(0.9))
	cases["index repeated"] = swap([]byte{1, 'w', 2, 2}, le(0.9), []byte{2}, le(0.5))
	noRows := &State{TaskStates: []TaskState{{ID: 5, MHat: [][]float64{{1, 1}}, S: []float64{0.5, 0.5}}}}
	if data, err := Encode(noRows); err != nil {
		t.Fatal(err)
	} else {
		p := data[len(magic)+8:]
		// id 5 | rows 1 | cols 2 | one row | s  →  id 5 | rows 0 | cols 2 | s
		at := bytes.Index(p, []byte{5, 1, 2})
		cases["task state of no rows"] = reframe(append(append(append([]byte(nil), p[:at]...), 5, 0, 2), p[at+3+16:]...))
	}
	for cut := 0; cut < len(data); cut++ {
		cases["truncated at "+strconv.Itoa(cut)] = data[:cut]
	}
	for bit := 0; bit < 8*len(data); bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		cases["bit flip "+strconv.Itoa(bit)] = flipped
	}
	for name, mutated := range cases {
		st, err := Decode(mutated)
		if err == nil || st != nil {
			t.Fatalf("%s: decoded despite damage", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

// TestWriteAtomic: a Write over an existing snapshot either fully replaces
// it or leaves it, and no temp litter survives — including the temp file a
// process killed between write and rename stranded, which the next Write
// reuses and Read never looks at.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	st := sampleState()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	stale := bytes.Repeat([]byte("stale"), 1<<12) // longer than a real image: O_TRUNC must cut it
	if err := os.WriteFile(filepath.Join(dir, FileName+".tmp"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err := Read(dir); err != nil || back.Seq != 41 {
		t.Fatalf("Read beside a stale temp file = (%v, %v)", back, err)
	}
	st2 := sampleState()
	st2.Seq = 99
	if err := Write(dir, st2); err != nil {
		t.Fatal(err)
	}
	back, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Seq != 99 {
		t.Fatalf("Seq = %d after replace, want 99", back.Seq)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != FileName {
			t.Fatalf("stray file %q left behind", filepath.Join(dir, e.Name()))
		}
	}
}
