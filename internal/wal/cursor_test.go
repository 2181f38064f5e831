package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// TestCursorPops walks one well-formed input through every pop.
func TestCursorPops(t *testing.T) {
	b := []byte{7}                                 // Byte
	b = binary.AppendUvarint(b, 300)               // Uvarint, two bytes
	b = binary.AppendUvarint(b, 5)                 // Int
	b = append(b, 2, 'h', 'i')                     // Bytes
	b = binary.LittleEndian.AppendUint64(b, 1<<63) // U64
	b = append(b, 'o', 'k', 0, 0)                  // Terminated, twice
	b = append(b, 3, 1, 2, 3)                      // Count(1) and its elements
	c := NewCursor(b)
	if got := c.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := c.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := c.Int(); got != 5 {
		t.Fatalf("Int = %d", got)
	}
	if got := c.Bytes(); string(got) != "hi" || cap(got) != 2 || c.Off() != 7 {
		t.Fatalf("Bytes = %q (cap %d), Off = %d", got, cap(got), c.Off())
	}
	if got := c.U64(); got != 1<<63 {
		t.Fatalf("U64 = %#x", got)
	}
	if got := c.Terminated(); string(got) != "ok" || cap(got) != 2 || c.Off() != 18 {
		t.Fatalf("Terminated = %q (cap %d), Off = %d", got, cap(got), c.Off())
	}
	if got := c.Terminated(); got == nil || len(got) != 0 {
		t.Fatalf("Terminated at a terminator = %q, want an empty field", got)
	}
	if n := c.Count(1); n != 3 || c.Len() != 3 {
		t.Fatalf("Count = %d with %d bytes left", n, c.Len())
	}
	if err := c.End(); err == nil {
		t.Fatal("End accepted three unread bytes")
	}
	c = NewCursor([]byte{0})
	if v := c.Uvarint(); v != 0 || c.End() != nil {
		t.Fatalf("a whole input: value %d, End = %v", v, c.End())
	}
}

// TestCursorDamage: each malformed primitive is reported once — the first
// error sticks, the input is spent — and every later pop is a harmless
// zero.
func TestCursorDamage(t *testing.T) {
	for name, tc := range map[string]struct {
		in  []byte
		pop func(c *Cursor)
	}{
		"overlong varint":        {[]byte{0x85, 0x00}, func(c *Cursor) { c.Uvarint() }},
		"overlong zero":          {[]byte{0x80, 0x00}, func(c *Cursor) { c.Uvarint() }},
		"varint cut short":       {[]byte{0x85}, func(c *Cursor) { c.Uvarint() }},
		"varint past 64 bits":    {bytes.Repeat([]byte{0xff}, 11), func(c *Cursor) { c.Uvarint() }},
		"empty":                  {nil, func(c *Cursor) { c.Uvarint() }},
		"count over bytes left":  {[]byte{3, 1, 2}, func(c *Cursor) { c.Count(1) }},
		"count over sized bytes": {append([]byte{2}, make([]byte, 15)...), func(c *Cursor) { c.Count(8) }},
		"count of 2^63":          {binary.AppendUvarint(nil, 1<<63), func(c *Cursor) { c.Count(1) }},
		"length past the end":    {[]byte{5, 'a', 'b'}, func(c *Cursor) { c.Bytes() }},
		"integer over MaxInt":    {binary.AppendUvarint(nil, 1<<63), func(c *Cursor) { c.Int() }},
		"short u64":              {make([]byte, 7), func(c *Cursor) { c.U64() }},
		"missing byte":           {nil, func(c *Cursor) { c.Byte() }},
		"no terminator":          {[]byte{'a', 'b'}, func(c *Cursor) { c.Terminated() }},
		"trailing byte":          {[]byte{1, 0}, func(c *Cursor) { c.Uvarint(); c.End() }},
		"format failure":         {[]byte{1, 2, 3}, func(c *Cursor) { c.Failf("field %d breaks a rule", c.Byte()) }},
	} {
		c := NewCursor(tc.in)
		tc.pop(&c)
		first := c.Err()
		if first == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if c.Len() != 0 || c.Off() != len(tc.in) {
			t.Errorf("%s: %d bytes left at offset %d after the failure", name, c.Len(), c.Off())
		}
		c.Failf("a later failure")
		if u, i, n, b, by, u64, term := c.Uvarint(), c.Int(), c.Count(1), c.Bytes(), c.Byte(), c.U64(), c.Terminated(); u != 0 || i != 0 || n != 0 || len(b) != 0 || by != 0 || u64 != 0 || len(term) != 0 {
			t.Errorf("%s: a pop after the failure returned a value", name)
		}
		if err := c.End(); err != first {
			t.Errorf("%s: End = %v, want the first error %v", name, err, first)
		}
	}
}

// TestWriteFileAtomic: a write replaces the target and whatever a crashed
// write stranded at the temp name; a write whose rename cannot succeed
// returns the error, leaves the old content alone and removes its temp.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	ls := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []byte
		for _, e := range entries {
			names = append(append(names, e.Name()...), ' ')
		}
		return string(names)
	}
	stale := bytes.Repeat([]byte("stale"), 1<<10) // longer than the write: O_TRUNC must cut it
	if err := os.WriteFile(path+".tmp", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one", "two, replacing one"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back (%q, %v), want %q", got, err, want)
		}
		if got := ls(); got != "state " {
			t.Fatalf("directory holds %q after a write", got)
		}
	}

	// A non-empty directory where the file should go: rename(2) refuses.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("never lands")); err == nil {
		t.Fatal("a write over a non-empty directory reported success")
	}
	if _, err := os.Stat(filepath.Join(blocked, "keep")); err != nil {
		t.Fatalf("the old content did not survive the failed write: %v", err)
	}
	if got := ls(); got != "blocked state " {
		t.Fatalf("directory holds %q after a failed write", got)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "state"), nil); err == nil {
		t.Fatal("a write into a missing directory reported success")
	}
}
