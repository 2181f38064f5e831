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

func sampleState() *State {
	return &State{
		Seq:        41,
		PublishSeq: 1,
		Answers:    3,
		GoldenIDs:  []int{7},
		TaskStates: []TaskState{{
			ID:   0,
			MHat: [][]float64{{1, 0.5}, {0.25, 1}},
			S:    []float64{0.25, 0.75},
		}},
		Workers: []WorkerStats{{ID: "w", Q: []float64{0.9}, U: []float64{2}}},
		Serving: []WorkerServing{{ID: "w", Profiled: true, GoldenTasks: []int{7}, GoldenChoices: []int{1},
			AnchorQ: []float64{0.8}, AnchorU: []float64{1}}},
		Store:         []WorkerStats{{ID: "w", Q: []float64{0.7}, U: []float64{3}}},
		StoreProfiles: []WorkerStats{{ID: "c/w", Q: []float64{0.6}, U: []float64{4}}},
		Log:           Log{Workers: []string{"w"}, W: []int{0, 0, 0}, T: []int{0, 1, 2}, C: []int{1, 0, 1}},
	}
}

// TestBitsExactness: the float codec must round-trip every bit pattern,
// including negative zero, denormals, NaN payloads and values that decimal
// formatting would mangle.
func TestBitsExactness(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.0 / 3.0, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 0.1 + 0.2, math.Nextafter(1, 2), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc)}
	data, err := Encode(&State{Workers: []WorkerStats{{ID: "w", Q: vals}}})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Workers[0].Q
	if len(got) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
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
		"negative answers": func(st *State) { st.Answers = -1 },
		"negative task id": func(st *State) { st.GoldenIDs = []int{-7} },
		"ragged mhat":      func(st *State) { st.TaskStates[0].MHat[1] = []float64{1} },
		"no choices":       func(st *State) { st.TaskStates[0] = TaskState{ID: 0} },
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
		"old magic":        append([]byte("DOCSSNP2"), data[len(magic):]...),
		// CRC-valid frames around payloads Encode would never produce.
		"payload cut short":      reframe(payload[:len(payload)-1]),
		"payload trailing byte":  reframe(append(append([]byte(nil), payload...), 0)),
		"overlong varint":        reframe(append([]byte{0x80 | 41, 0x00}, payload[1:]...)),
		"count of 2^63":          reframe(append(append([]byte(nil), payload[:3]...), binary.AppendUvarint(nil, 1<<63)...)),
		"profiled flag out of 2": reframe(bytes.Replace(payload, []byte{1, 'w', 1, 1, 7}, []byte{1, 'w', 2, 1, 7}, 1)),
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
