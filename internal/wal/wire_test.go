package wal

import (
	"bytes"
	"fmt"
	"testing"
)

func sampleBatch(n int) []Record {
	items := make([]Record, n)
	for i := range items {
		items[i] = Record{Worker: fmt.Sprintf("w%d", i%7), Task: i, Choice: i % 3}
	}
	return items
}

func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 64, 300} {
		body := EncodeBatch(nil, sampleBatch(n))
		items, err := DecodeBatch(body)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(items) != n {
			t.Fatalf("n=%d: got %d items", n, len(items))
		}
		for i, it := range items {
			want := sampleBatch(n)[i]
			if it.Worker != want.Worker || it.Task != want.Task || it.Choice != want.Choice {
				t.Fatalf("n=%d item %d: got %+v, want %+v", n, i, it, want)
			}
		}
		// Canonical: re-encoding the decoded items reproduces the body.
		if got := EncodeBatch(nil, items); !bytes.Equal(got, body) {
			t.Fatalf("n=%d: encode/decode not canonical", n)
		}
	}
}

func TestBatchDecodeRejects(t *testing.T) {
	good := EncodeBatch(nil, sampleBatch(3))
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   append([]byte("XXX1"), good[4:]...),
		"torn frame":  good[:len(good)-2],
		"flipped bit": flip(good, len(good)-1),
		// A publish record smuggled in as a batch item.
		"wrong kind": EncodeFrame(append([]byte(nil), batchMagic...),
			Record{Seq: 1, Kind: KindPublish, Blob: []byte("x")}.Encode()),
		// Position tag 2 on the first item: a reordered or spliced body.
		"bad position": EncodeFrame(append([]byte(nil), batchMagic...),
			Record{Seq: 2, Kind: KindAnswer, Worker: "w"}.Encode()),
	}
	for name, body := range cases {
		if _, err := DecodeBatch(body); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x40
	return c
}

// FuzzBatchDecode drives arbitrary bytes through the batch blob decoder —
// the bytes a KindBatch WAL record hands to replay after a crash. It must
// never panic, and every accepted blob must re-encode to the exact input
// bytes (one batch, one encoding). Seed corpus lives in
// testdata/fuzz/FuzzBatchDecode (checked in).
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DBB1"))
	f.Add([]byte("DBB0"))
	f.Add(EncodeBatch(nil, sampleBatch(1)))
	f.Add(EncodeBatch(nil, sampleBatch(5)))
	f.Add(EncodeBatch(nil, []Record{{Worker: "wörker", Task: 1 << 20, Choice: 3}}))
	torn := EncodeBatch(nil, sampleBatch(2))
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, body []byte) {
		items, err := DecodeBatch(body)
		if err != nil {
			return // rejected input: fine, as long as we did not panic
		}
		if got := EncodeBatch(nil, items); !bytes.Equal(got, body) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", body, got)
		}
	})
}
