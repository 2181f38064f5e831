package docs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneReaderOneWriter keeps the durable-bytes primitives single: outside
// test files, the raw varint read lives only in wal.Cursor (which owns the
// canonical-encoding rule) and the rename only in wal.WriteFileAtomic
// (which owns the fsync-rename-fsync protocol), and nothing stages a file
// under a random temp name a crash would strand. A new decoder or a new
// atomically-replaced file goes through those two; a second copy of either
// fails here.
func TestOneReaderOneWriter(t *testing.T) {
	want := map[string][]string{
		"binary.Uvarint(": {"internal/wal/cursor.go"},
		"os.Rename(":      {"internal/wal/atomic.go"},
		"os.CreateTemp(":  nil,
	}
	got := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for call := range want {
			if strings.Contains(string(src), call) {
				got[call] = append(got[call], filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for call, files := range want {
		if strings.Join(got[call], " ") != strings.Join(files, " ") {
			t.Errorf("%s appears in %v, want only %v", call, got[call], files)
		}
	}
}
