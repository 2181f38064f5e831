package store

import (
	"bytes"
	"math"
	"testing"

	"docs/internal/model"
	"docs/internal/truth"
	"docs/internal/wal"
)

// sampleUpdates are updates over m = 3 domains with the floats a codec
// could mangle — −0, a denormal, a value that is not a short decimal — and
// one statistic left entirely at the defaults, one of each op.
func sampleUpdates() []update {
	odd := &truth.Stats{
		Q: model.QualityVector{0.7, math.Copysign(0, -1), 1.0 / 3},
		U: []float64{2, math.Float64frombits(1), 0},
	}
	return []update{
		{op: opPut, id: "w", st: odd},
		{op: opMerge, id: "wörker", st: truth.NewStats(3)},
		{op: opProfile, id: "w", key: "camp/w", st: odd},
		{op: opProfile, id: "", key: "/", st: &truth.Stats{Q: model.QualityVector{0.7, 0.7, 0.7}, U: []float64{0, 0, math.Copysign(0, -1)}}},
		{op: opSession, id: "w", key: "#1", st: odd},
	}
}

func mustEncode(t testing.TB, u update) []byte {
	t.Helper()
	b, err := encodeUpdate(u, 3)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkUpdateDecode holds decodeUpdate to the canonical-format contract on
// arbitrary bytes: it never panics, and whatever it accepts re-encodes to
// exactly the bytes it was given.
func checkUpdateDecode(t *testing.T, blob []byte) {
	t.Helper()
	u, err := decodeUpdate(wal.Record{Kind: wal.KindStore, Worker: "w", Blob: blob}, 3)
	if err != nil {
		if u.st != nil {
			t.Fatalf("decodeUpdate returned statistics beside error %v", err)
		}
		return
	}
	if again := mustEncode(t, u); !bytes.Equal(again, blob) {
		t.Fatalf("accepted an update that re-encodes differently:\n in  %x\n out %x", blob, again)
	}
}

// TestUpdateRoundTrip: every op survives encode → decode with its worker,
// profile ID or scope and float bits, and a default entry costs no byte.
func TestUpdateRoundTrip(t *testing.T) {
	for i, u := range sampleUpdates() {
		blob := mustEncode(t, u)
		got, err := decodeUpdate(wal.Record{Kind: wal.KindStore, Worker: u.id, Blob: blob}, 3)
		if err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
		if got.op != u.op || got.id != u.id || got.key != u.key || !statsEqual(got.st, u.st) {
			t.Errorf("update %d round trip = %+v, want %+v", i, got, u)
		}
	}
	// m, op and two empty sparse vectors: an all-default merge is 4 bytes.
	if blob := mustEncode(t, sampleUpdates()[1]); len(blob) != 4 {
		t.Errorf("an all-default merge is %d bytes (%x), want 4", len(blob), blob)
	}
}

// TestUpdateIsCanonical: every second spelling of an update is refused.
func TestUpdateIsCanonical(t *testing.T) {
	put := mustEncode(t, sampleUpdates()[0])     // 03 01 | q | u
	profile := mustEncode(t, sampleUpdates()[2]) // 03 03 06 "camp/w" | q | u
	session := mustEncode(t, sampleUpdates()[4]) // 03 04 02 "#1" | q | u
	withPID := append([]byte{3, byte(opPut), 1, 'w'}, put[2:]...)
	for name, blob := range map[string][]byte{
		"another domain count":         append([]byte{4}, put[1:]...),
		"overlong domain count":        append([]byte{0x83, 0x00}, put[1:]...),
		"unknown op":                   append([]byte{3, 9}, put[2:]...),
		"op zero":                      append([]byte{3, 0}, put[2:]...),
		"a pid on a non-profile op":    withPID,
		"profile with an empty pid":    append([]byte{3, byte(opProfile), 0}, put[2:]...),
		"listed default quality":       append([]byte{3, byte(opMerge), 1, 0, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0xe6, 0x3f}, 0),
		"listed +0 weight":             {3, byte(opMerge), 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"index not below m":            {3, byte(opMerge), 0, 1, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
		"indexes out of order":         {3, byte(opMerge), 0, 2, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f},
		"negative weight":              {3, byte(opMerge), 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf},
		"quality above one":            {3, byte(opMerge), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0x40, 0},
		"trailing byte":                append(append([]byte(nil), profile...), 0),
		"empty":                        nil,
		"profile cut before its pid":   profile[:2],
		"session with an empty scope":  append([]byte{3, byte(opSession), 0}, put[2:]...),
		"session cut inside its scope": session[:4],
	} {
		if _, err := decodeUpdate(wal.Record{Kind: wal.KindStore, Blob: blob}, 3); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// The listed-default row fails for its value alone: the same bytes with
	// one exponent bit flipped decode.
	if _, err := decodeUpdate(wal.Record{Kind: wal.KindStore, Blob: []byte{3, byte(opMerge), 1, 0, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0xe6, 0x3e, 0}}, 3); err != nil {
		t.Fatalf("a listed non-default quality does not decode: %v", err)
	}
	// A record of any other kind is not a store update, whatever its blob.
	for _, kind := range []wal.Kind{wal.KindAnswer, wal.KindPublish, wal.KindBatch, wal.KindSeed} {
		if _, err := decodeUpdate(wal.Record{Kind: kind, Blob: put}, 3); err == nil {
			t.Errorf("a kind %d record decoded as a store update", kind)
		}
	}
}

// TestUpdateDecodeDamage: every truncation errors, and every single-bit
// flip of a valid blob either errors or decodes to something that
// re-encodes to those exact bytes.
func TestUpdateDecodeDamage(t *testing.T) {
	for _, u := range sampleUpdates() {
		data := mustEncode(t, u)
		checkUpdateDecode(t, data)
		for cut := 0; cut < len(data); cut++ {
			if got, err := decodeUpdate(wal.Record{Kind: wal.KindStore, Blob: data[:cut]}, 3); err == nil || got.st != nil {
				t.Fatalf("truncated at %d: decoded", cut)
			}
		}
		for bit := 0; bit < 8*len(data); bit++ {
			flipped := append([]byte(nil), data...)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkUpdateDecode(t, flipped)
		}
	}
}

// FuzzStoreRecordDecode drives arbitrary bytes through the KindStore blob
// reader, which every store Open runs once per logged update. Seed corpus
// in testdata/fuzz/FuzzStoreRecordDecode (checked in): a put with −0 and a
// denormal, an all-default merge, a profile, the profile cut short, with
// an overlong domain count, with an unknown op, a session, a session with an
// empty scope, a session cut inside its scope.
func FuzzStoreRecordDecode(f *testing.F) {
	for _, u := range sampleUpdates() {
		f.Add(mustEncode(f, u))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkUpdateDecode(t, data)
	})
}
