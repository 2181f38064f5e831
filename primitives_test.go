package docs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
// neither open a file of its own nor write a JSON one, and nothing under
// internal/core or internal/wal imports "encoding/json": no record is JSON.
// A frame's checksum is computed only beside the one frame walker
// (wal.DecodeFrames) and its two writers, and the segment header's magic
// is spelled only in wal.go, beside its one writer and one reader. Format
// v0 has no reader: the retired batch magic and the previous snapshot
// version are spelled nowhere, and no decodeLegacy function survives — an
// older blob is refused at its magic, an older segment at its first
// bytes. One codec compresses: LZW, in
// the publication record, whose stream the decoder holds to a re-encode —
// and nothing imports compress/flate, whose output is not pinned across
// Go releases. Only tests fail an fsync on purpose (wal.FailFsyncAt), and
// a registry campaign's lifecycle state has one writer: the registry's
// transition function. A request body has one reader, decodeBody, and
// nothing under internal/httpapi streams a body through json.NewDecoder,
// which stops at the first value; the /publish scanner is called from
// publication.decode alone, the decoder handlePublish hands decodeBody. A
// state snapshot has one writer: core's snapshotPass, called from
// Hibernate alone.
func TestOneReaderOneWriter(t *testing.T) {
	want := map[string][]string{
		"binary.Uvarint(":  {"internal/wal/cursor.go"},
		"os.Rename(":       {"internal/wal/atomic.go"},
		"os.CreateTemp(":   nil,
		".Sync()":          {"internal/wal/atomic.go"},
		"crc32.Checksum(":  {"internal/wal/record.go"},
		`"DBB1"`:           nil,
		`"DWAL"`:           {"internal/wal/wal.go"},
		"decodeLegacy":     nil,
		"DOCSSNP3":         nil,
		`"compress/lzw"`:   {"internal/core/publication.go"},
		`"compress/flate"`: nil,
		"FailFsyncAt(":     {"internal/wal/atomic.go"},
	}
	// Imports and calls no file under a directory may name.
	forbidden := map[string][]string{
		"internal/store/":   {`"os"`, `"encoding/json"`},
		"internal/core/":    {`"encoding/json"`},
		"internal/wal/":     {`"encoding/json"`},
		"internal/httpapi/": {"json.NewDecoder("},
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
					t.Errorf("%s names %s, which nothing under %s may", path, imp, dir)
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

	// A campaign's state field is set — assigned or given in a composite
	// literal — only inside the registry's transition function.
	fset := token.NewFileSet()
	writers := 0
	funcNodes(t, fset, "internal/registry/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		var field ast.Node
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "state" {
					field = sel
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok && id.Name == "state" {
				field = id
			}
		}
		if field == nil {
			return
		}
		if fn.Name.Name != "transition" {
			t.Errorf("%s: %s sets a campaign's state outside transition", fset.Position(field.Pos()), fn.Name.Name)
		}
		writers++
	})
	if writers == 0 {
		t.Error("found no write of a campaign's state: the check no longer sees the field")
	}

	// A request body is read in decodeBody alone, and the body scanner is
	// called from publication.decode and nowhere else.
	calls := 0
	funcNodes(t, fset, "internal/httpapi/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Body" && fn.Name.Name != "decodeBody" {
			t.Errorf("%s: %s reads a request body; only decodeBody may", fset.Position(sel.Pos()), fn.Name.Name)
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "scanPublish" {
				if fn.Name.Name != "decode" || fn.Recv == nil || types.ExprString(fn.Recv.List[0].Type) != "*publication" {
					t.Errorf("%s: %s calls scanPublish; only publication.decode may", fset.Position(id.Pos()), fn.Name.Name)
				}
				calls++
			}
		}
	})
	if calls != 1 {
		t.Errorf("found %d calls of scanPublish, want 1 (in publication.decode)", calls)
	}

	// The snapshot pass runs in Hibernate and nowhere else.
	calls = 0
	funcNodes(t, fset, "internal/core/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "snapshotPass" {
				if fn.Name.Name != "Hibernate" {
					t.Errorf("%s: %s runs a snapshot pass; only Hibernate may", fset.Position(sel.Pos()), fn.Name.Name)
				}
				calls++
			}
		}
	})
	if calls != 1 {
		t.Errorf("found %d calls of snapshotPass, want 1 (in Hibernate)", calls)
	}

	// The campaign's inference runs in infer and nowhere else: Results and
	// the periodic rerun share it.
	calls = 0
	funcNodes(t, fset, "internal/core/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		if sel, ok := n.(*ast.SelectorExpr); ok && types.ExprString(sel) == "truth.Infer" {
			if fn.Name.Name != "infer" {
				t.Errorf("%s: %s calls truth.Infer; only infer may", fset.Position(sel.Pos()), fn.Name.Name)
			}
			calls++
		}
	})
	if calls != 1 {
		t.Errorf("found %d calls of truth.Infer in internal/core, want 1 (in infer)", calls)
	}

	// A plain merge (store op 2) is read from older logs and written by
	// nothing: only the decoder names the op.
	calls = 0
	funcNodes(t, fset, "internal/store/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && id.Name == "opMerge" {
			if fn.Name.Name != "decodeUpdate" {
				t.Errorf("%s: %s names opMerge; only decodeUpdate may", fset.Position(id.Pos()), fn.Name.Name)
			}
			calls++
		}
	})
	if calls != 1 {
		t.Errorf("found opMerge %d times in internal/store's functions, want 1 (in decodeUpdate)", calls)
	}
}

// funcNodes calls visit with every node of every function declared in the
// non-test files glob matches.
func funcNodes(t *testing.T, fset *token.FileSet, glob string, visit func(fn *ast.FuncDecl, n ast.Node)) {
	t.Helper()
	paths, err := filepath.Glob(glob)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				ast.Inspect(fn, func(n ast.Node) bool { visit(fn, n); return true })
			}
		}
	}
}
