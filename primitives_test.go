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
// fails here. An fsync is issued only by wal's counted helper — so
// wal.SyncDir is the one directory fsync and wal.Fsyncs() sees every sync a
// campaign or the worker store pays for. The worker store rides the log: no
// file under internal/store imports "os" or "encoding/json", so it can
// neither open a file of its own nor write a JSON one. A frame's checksum
// is computed only beside the one
// frame walker (wal.DecodeFrames) and its two writers, and the retired
// per-answer batch magic is spelled only where wire.go reads it: nothing
// outside the tests writes a "DBB1" blob. The previous snapshot version is
// spelled nowhere at all: an older file is refused at the magic, so it has
// neither a reader nor a writer to name it. One codec compresses: LZW, in
// the publication record, whose stream the decoder holds to a re-encode —
// and nothing imports compress/flate, whose output is not pinned across
// Go releases.
func TestOneReaderOneWriter(t *testing.T) {
	want := map[string][]string{
		"binary.Uvarint(":  {"internal/wal/cursor.go"},
		"os.Rename(":       {"internal/wal/atomic.go"},
		"os.CreateTemp(":   nil,
		".Sync()":          {"internal/wal/atomic.go"},
		"crc32.Checksum(":  {"internal/wal/record.go"},
		`"DBB1"`:           {"internal/wal/wire.go"},
		"DOCSSNP3":         nil,
		`"compress/lzw"`:   {"internal/core/publication.go"},
		`"compress/flate"`: nil,
	}
	// Imports no file under a directory may name.
	forbidden := map[string][]string{
		"internal/store/": {`"os"`, `"encoding/json"`},
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
		for dir, imports := range forbidden {
			for _, imp := range imports {
				if strings.HasPrefix(filepath.ToSlash(path), dir) && strings.Contains(string(src), imp) {
					t.Errorf("%s imports %s, which nothing under %s may", path, imp, dir)
				}
			}
		}
		// (*wal.Log).Sync is not an fsync site: it ends in wal's helper.
		text := strings.ReplaceAll(string(src), ".wal.Sync()", "")
		for call := range want {
			if strings.Contains(text, call) {
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
