package snapshot

import (
	"bytes"
	"errors"
	"testing"

	"docs/internal/wal"
)

// elements counts every slice element, string byte and struct a decoded
// state holds — what Decode had to allocate for.
func elements(st *State) int {
	sparse := func(vs ...wal.SparseFloats) int {
		n := 0
		for _, v := range vs {
			n += len(v.K) + len(v.V)
		}
		return n
	}
	n := len(st.TaskStates) + len(st.Workers)
	for _, ts := range st.TaskStates {
		n += len(ts.MHat) + len(ts.MHat)*len(ts.S) + len(ts.S)
	}
	for _, w := range st.Workers {
		n += len(w.ID) + sparse(w.Q, w.U)
	}
	return n
}

// FuzzSnapshotDecode drives arbitrary bytes through the snapshot decoder.
// It reads whatever a crash or rot left on disk at every boot and wake, so
// it must never panic, must reject with ErrCorrupt only, must not allocate
// more elements than the input has bytes (a hostile count cannot buy
// memory), and must accept only canonical images — an accepted input
// re-encodes to the identical bytes. Seed corpus lives in
// testdata/fuzz/FuzzSnapshotDecode (checked in): a real campaign's
// snapshot, the same cut at three points, with one byte flipped inside the
// frame, and with a count field set to 2^63.
func FuzzSnapshotDecode(f *testing.F) {
	data, err := Encode(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			if st != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection returned state %v, error %v", st, err)
			}
			return
		}
		if n := elements(st); n > len(data) {
			t.Fatalf("decoded %d elements out of %d bytes", n, len(data))
		}
		again, err := Encode(st)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, again)
		}
	})
}
