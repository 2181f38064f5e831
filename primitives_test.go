package docs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"docs/internal/lint"
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
// A frame's checksum is computed only beside the frame readers (the
// 8-byte frame's wal.DecodeFrames and the record frame) and their writers,
// and the segment header's magic is spelled only in wal.go, beside its one
// writer and one reader. A format nothing writes has no reader, and the
// segment header's version is the one format number: no file outside
// internal/wal declares a version constant, and the blob magics and
// snapshot layouts older versions carried (the batch's DBB1, the
// publications' DPB1–DPB3 and DPC3, the snapshot's DOCSSNP3 and DOCSSNP4)
// are spelled nowhere, so an older blob is refused as damage and an older
// log at its first segment's header. No decodeLegacy function survives, no
// file imports compress/lzw, internal/wal declares no Decode, headerV1 or
// formatV1, no Log.sealed and no scanned.version, and its 8-byte frame
// reader is called by DecodeFrames and, once, for the segment header. A
// publish record has one reader: applyRecord alone calls
// decodePublication, and only that unpacks or decodes a publication blob.
// The publication record is the one
// compressed blob: publication.go alone imports compress/flate, for its
// reader, and the decode runs no writer: only core.go, where a publish
// runs the packer, takes one from the pool (deflaters.Get). Nothing calls
// flate.NewWriter: one compress/flate writer allocates ≈807 KB at level 6
// (≈1.2 MB at BestSpeed), which every process would pay on its first
// publish, against the pooled writer's 145 KiB. Only tests fail an fsync on purpose (wal.FailFsyncAt), and a
// registry campaign's lifecycle state has one writer: the registry's
// transition function. A request body has one reader, decodeBody, and
// nothing under internal/httpapi streams a body through json.NewDecoder,
// which stops at the first value; the /publish scanner is called from
// publication.decode alone, the decoder handlePublish hands decodeBody. A
// state snapshot has one writer: core's snapshotPass, called from
// Hibernate alone; a wake is a boot, so there is no restore installer
// (restoreSnapshot, readPublication) and only the snapshot's install,
// installSnapshot, calls (*truth.Incremental).RestoreTask. A rerun reads
// the answer log where it lies: core calls truth.InferIndex from infer
// alone, builds an AnswerSet only in Answers, and reads the log only
// through logPrefix; submitOne appends it and nothing else assigns it. A
// regular answer is held once, in that log's columns: no field of core's
// System or workerState, or of the truth engine's incTask, is a
// []model.Answer or a map keyed by a task. A
// campaign is a registry's: core.New is called from the registry's
// wake alone, the root package
// imports no store, and nothing mints a session scope (MintScope). A
// task's domain vector is one its publication's tasks share, so nothing in
// the root package or internal/{core,truth,assign,registry,httpapi}
// writes an element of a .Domain. The paper's experiments grade the served
// DOCS: nothing under internal/experiment builds a truth.Incremental. A
// /stats counter is declared once: the response type embeds the campaign's
// and the registry's Stats and declares none of the keys they carry. A
// crash image is built by internal/crashtest alone, which only tests
// import: it is the one caller of wal.ScanSegment outside internal/wal. A
// task's truth state has one builder: only the engine's materialise makes
// or registers an incTask, so a latent task holds nothing, and the lease
// table has no per-task map (leaseTable.counts). A task has one address
// below the core, its publication position: no field of the truth engine's
// Incremental or incTask, of truth's Options or Result, of model's LogIndex
// or of core's System, candidateIndex or leaseTable is a map keyed by an
// integer, directly or inside a type it holds by value or as an element. A
// published task is known
// by its publication position: no field of core's System, Batch,
// taskOrder, candidateIndex or leaseTable is a map keyed by an int, so the
// ID order the publication's decode builds stays the one task ID →
// position lookup, and none is a []*model.Task or []model.Task: a
// published task is a row of the task table, which one function builds
// for a publish and a wake alike; the table alone imports "unsafe", for its
// zero-copy strings. A worker's serving state lives at their truth-engine
// handle: nothing imports internal/shard, and no field of core's System or
// workerState holds a map keyed by a string. A campaign's mutations run on
// its one writer, so internal/core and internal/truth declare only the
// locks listed here by name, each for a reader or a fan-out beside that
// writer.
func TestOneReaderOneWriter(t *testing.T) {
	want := map[string][]string{
		"binary.Uvarint(":       {"internal/wal/cursor.go"},
		"os.Rename(":            {"internal/wal/atomic.go"},
		"os.CreateTemp(":        nil,
		".Sync()":               {"internal/wal/atomic.go"},
		"crc32.Checksum(":       {"internal/wal/record.go"},
		`"DBB1"`:                nil,
		`"DWAL"`:                {"internal/wal/wal.go"},
		"decodeLegacy":          nil,
		"DPB1":                  nil,
		"DPB2":                  nil,
		"DPB3":                  nil,
		"DPC3":                  nil,
		"DOCSSNP3":              nil,
		"DOCSSNP4":              nil,
		"restoreSnapshot":       nil,
		"readPublication":       nil,
		`"compress/lzw"`:        nil,
		`"compress/flate"`:      {"internal/core/publication.go"},
		"flate.NewWriter":       nil,
		"deflaters.Get(":        {"internal/core/core.go"},
		"FailFsyncAt(":          {"internal/wal/atomic.go"},
		"MintScope":             nil,
		`"unsafe"`:              {"internal/core/table.go"},
		`"docs/internal/shard"`: nil,
	}
	// Imports and calls no file under a directory may name.
	forbidden := map[string][]string{
		"internal/store/":   {`"os"`, `"encoding/json"`},
		"internal/core/":    {`"encoding/json"`},
		"internal/wal/":     {`"encoding/json"`},
		"internal/httpapi/": {"json.NewDecoder("},
		// One DOCS: an experiment's DOCS arm drives the served core, not a
		// truth engine of its own.
		"internal/experiment/": {"truth.NewIncremental"},
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
	fset := token.NewFileSet()

	// A publish record has one reader: applyRecord calls decodePublication,
	// which alone unpacks a blob. A task table has one builder,
	// decodeBinaryPublication: a publish runs it on the blob it packed,
	// decodePublication on the blob a record holds.
	readers := map[string][]string{}
	funcNodes(t, fset, "internal/core/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				readers[id.Name] = append(readers[id.Name], fn.Name.Name)
			}
		}
	})
	for callee, caller := range map[string]string{"decodePublication": "applyRecord",
		"unpackPublication": "decodePublication", "decodeBinaryPublication": "PublishBatch decodePublication"} {
		if got := strings.Join(readers[callee], " "); got != caller {
			t.Errorf("%s is called from [%s], want only from %s", callee, got, caller)
		}
	}

	// A campaign's lifecycle position is published only by newCampaign
	// (a new entry), move (a transition's mark) and land (its outcome):
	// nothing else stores or swaps a campaign's life.
	writers := 0
	funcNodes(t, fset, "internal/registry/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Store" && sel.Sel.Name != "CompareAndSwap") {
			return
		}
		if field, ok := sel.X.(*ast.SelectorExpr); !ok || field.Sel.Name != "life" {
			return
		}
		if name := fn.Name.Name; name != "newCampaign" && name != "move" && name != "land" {
			t.Errorf("%s: %s publishes a campaign's life outside newCampaign, move and land", fset.Position(sel.Pos()), name)
		}
		writers++
	})
	if writers != 3 {
		t.Errorf("found %d publications of a campaign's life, want 3: the check no longer sees the field", writers)
	}

	// A task's domain vector is shared by every task of its publication with
	// the same logged encoding (core's domainTable), so nothing that holds a
	// published task writes an element of one: no assignment or ++/-- to a
	// .Domain[k], and no .Domain handed to copy, clear or Scatter as the
	// destination. Element reads are counted so the check cannot go blind.
	isDomain := func(e ast.Expr) bool {
		if sl, ok := e.(*ast.SliceExpr); ok {
			e = sl.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Domain"
	}
	isElement := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		return ok && isDomain(ix.X)
	}
	elements := 0
	for _, glob := range []string{"*.go", "internal/core/*.go", "internal/truth/*.go", "internal/assign/*.go", "internal/registry/*.go", "internal/httpapi/*.go"} {
		funcNodes(t, fset, glob, func(fn *ast.FuncDecl, n ast.Node) {
			var written ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if isElement(lhs) {
						written = lhs
					}
				}
			case *ast.IncDecStmt:
				if isElement(n.X) {
					written = n.X
				}
			case *ast.CallExpr:
				name := types.ExprString(n.Fun)
				name = name[strings.LastIndex(name, ".")+1:]
				if (name == "copy" || name == "clear" || name == "Scatter") && len(n.Args) > 0 && isDomain(n.Args[0]) {
					written = n.Args[0]
				}
			case *ast.IndexExpr:
				if isElement(n) {
					elements++
				}
			}
			if written != nil {
				t.Errorf("%s: %s writes into a task's domain vector, which its publication shares", fset.Position(written.Pos()), fn.Name.Name)
			}
		})
	}
	if elements == 0 {
		t.Error("found no element of a domain vector indexed: the check no longer sees the field")
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

	// The campaign's inference runs in infer and nowhere else — Results and
	// the periodic rerun share it — and reads the answer log in place:
	// outside Answers, nothing in internal/core builds, clones or infers
	// over an AnswerSet. The log itself is read only through logPrefix,
	// appended (s.log = s.log.Append(…)) only in submitOne and assigned
	// nowhere else, which is what makes a capped prefix of it a snapshot.
	prog, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	logUses := map[string][]string{}
	logUse := func(use, fn string) {
		if fns := logUses[use]; len(fns) == 0 || fns[len(fns)-1] != fn {
			logUses[use] = append(fns, fn)
		}
	}
	for _, pkg := range prog.Packages {
		if pkg.Path != "docs/internal/core" {
			continue
		}
		isLog := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			v, ok := pkg.Info.Selections[sel]
			return ok && v.Obj().Name() == "log" && types.TypeString(v.Recv(), nil) == "*docs/internal/core.System"
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				counted := map[ast.Expr]bool{}
				ast.Inspect(fn, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && isLog(as.Lhs[0]) {
						counted[as.Lhs[0]] = true
						use := "assign"
						if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Append" && isLog(sel.X) {
								use, counted[sel.X] = "append", true
							}
						}
						logUse(use, fn.Name.Name)
					}
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if isLog(sel) && !counted[sel] {
						logUse("read", fn.Name.Name)
					}
					f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok {
						return true
					}
					switch name := f.FullName(); name {
					case "docs/internal/truth.InferIndex":
						if fn.Name.Name != "infer" {
							t.Errorf("%s: %s calls truth.InferIndex; only infer may", prog.Fset.Position(sel.Pos()), fn.Name.Name)
						}
						calls++
					case "docs/internal/truth.Infer", "docs/internal/model.NewAnswerSet", "(*docs/internal/model.AnswerSet).Clone":
						if fn.Name.Name != "Answers" {
							t.Errorf("%s: %s names %s; only Answers may", prog.Fset.Position(sel.Pos()), fn.Name.Name, name)
						}
					}
					return true
				})
			}
		}
	}
	if calls != 1 {
		t.Errorf("found %d calls of truth.InferIndex in internal/core, want 1 (in infer)", calls)
	}
	for use, fns := range map[string]string{"read": "logPrefix", "append": "submitOne", "assign": ""} {
		if strings.Join(logUses[use], " ") != fns {
			t.Errorf("s.log: %s in %v, want [%s]", use, logUses[use], fns)
		}
	}

	// A campaign is a registry's: core.New builds one in the registry's
	// wake alone, and the root package reaches the worker store through a
	// registry only. The truth engine's ID-keyed surface (AddTask, Submit,
	// View(id)) has one caller outside internal/truth, docs-perf's ladder:
	// everything else holds its tasks by position in Slots. Resolved, since
	// (*truth.Slot).View and (*truth.Rest).View are other methods.
	var builders, byID []string
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, imp := range file.Imports {
				if pkg.Path == "docs" && imp.Path.Value == `"docs/internal/store"` {
					t.Errorf("%s imports docs/internal/store; the root package reaches the store through a registry", prog.Fset.Position(imp.Pos()))
				}
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						f, ok := pkg.Info.Uses[id].(*types.Func)
						if !ok {
							return true
						}
						switch f.FullName() {
						case "docs/internal/core.New":
							builders = append(builders, pkg.Path+"."+fn.Name.Name)
						case "(*docs/internal/truth.Incremental).AddTask", "(*docs/internal/truth.Incremental).Submit", "(*docs/internal/truth.Incremental).View":
							if pkg.Path != "docs/internal/truth" {
								byID = append(byID, filepath.ToSlash(prog.Fset.Position(id.Pos()).Filename))
							}
						}
					}
					return true
				})
			}
		}
	}
	sort.Strings(builders)
	if got, want := strings.Join(builders, " "), "docs/internal/registry.wake"; got != want {
		t.Errorf("core.New is called from [%s], want only [%s]", got, want)
	}
	if len(byID) == 0 {
		t.Error("found no call of the engine's ID-keyed surface: the check no longer sees docs-perf's ladder")
	}
	for _, file := range byID {
		if !strings.HasSuffix(file, "cmd/docs-perf/layers.go") {
			t.Errorf("%s calls the truth engine's ID-keyed AddTask/Submit/View; only docs-perf's ladder may", file)
		}
	}

	// Each /stats counter is declared once, on the struct of the layer that
	// owns it: httpapi's statsJSON embeds the campaign's core.Stats and the
	// registry's registry.Stats, and of its own fields declares none of the
	// JSON keys a field of core.Stats, core.RecoveryInfo or registry.Stats
	// carries — only the keys computed at read time.
	typeOf := func(pkgPath, name string) *types.Named {
		for _, pkg := range prog.Packages {
			if pkg.Path == pkgPath {
				if obj, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
					return types.Unalias(obj.Type()).(*types.Named)
				}
			}
		}
		t.Fatalf("%s.%s not found", pkgPath, name)
		return nil
	}
	jsonKey := func(st *types.Struct, i int) string {
		key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		return key
	}
	owned := map[string]string{}
	for _, named := range []*types.Named{typeOf("docs/internal/core", "Stats"), typeOf("docs/internal/core", "RecoveryInfo"), typeOf("docs/internal/registry", "Stats")} {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if key := jsonKey(st, i); key != "" && key != "-" {
				owned[key] = named.String()
			}
		}
	}
	if len(owned) == 0 {
		t.Error("found no JSON key on the counter structs: the check no longer sees their tags")
	}
	var embeds []string
	resp := typeOf("docs/internal/httpapi", "statsJSON").Underlying().(*types.Struct)
	for i := 0; i < resp.NumFields(); i++ {
		f := resp.Field(i)
		if f.Embedded() {
			embeds = append(embeds, types.Unalias(f.Type()).String())
		} else if owner, ok := owned[jsonKey(resp, i)]; ok {
			t.Errorf("%s: statsJSON.%s declares the key %q, which %s owns: embed it instead", prog.Fset.Position(f.Pos()), f.Name(), jsonKey(resp, i), owner)
		}
	}
	if got, want := strings.Join(embeds, " "), "docs/internal/core.Stats docs/internal/registry.Stats"; got != want {
		t.Errorf("statsJSON embeds [%s], want [%s]", got, want)
	}

	// The engine's numbers are restored in the snapshot's install alone.
	calls = 0
	for _, glob := range []string{"*.go", "cmd/*/*.go", "internal/*/*.go"} {
		funcNodes(t, fset, glob, func(fn *ast.FuncDecl, n ast.Node) {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "RestoreTask" {
				if fn.Name.Name != "installSnapshot" {
					t.Errorf("%s: %s calls RestoreTask; only installSnapshot may", fset.Position(sel.Pos()), fn.Name.Name)
				}
				calls++
			}
		})
	}
	if calls != 1 {
		t.Errorf("found %d calls of RestoreTask, want 1 (in installSnapshot)", calls)
	}

	// One format number: internal/wal alone declares a version constant,
	// its header's.
	versions := 0
	for _, pkg := range prog.Packages {
		for _, name := range pkg.Types.Scope().Names() {
			if _, ok := pkg.Types.Scope().Lookup(name).(*types.Const); ok && strings.Contains(strings.ToLower(name), "version") {
				if pkg.Path != "docs/internal/wal" {
					t.Errorf("%s declares %s: the segment header's version is the one format number", pkg.Path, name)
				}
				versions++
			}
		}
	}
	if versions != 1 {
		t.Errorf("found %d version constants, want 1 (internal/wal's formatVersion): the check no longer sees it", versions)
	}

	// Format v1 has no reader: internal/wal declares none of its names, and
	// the 8-byte frame reader reads the segment header and DecodeFrames'
	// frames, not records.
	isIdent := func(e ast.Expr, name string) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == name
	}
	for _, pkg := range prog.Packages {
		if pkg.Path != "docs/internal/wal" {
			continue
		}
		for _, name := range []string{"Decode", "headerV1", "formatV1"} {
			if obj := pkg.Types.Scope().Lookup(name); obj != nil {
				t.Errorf("%s: internal/wal declares %s, a format v1 reader's", prog.Fset.Position(obj.Pos()), name)
			}
		}
		for typ, field := range map[string]string{"Log": "sealed", "scanned": "version"} {
			st := pkg.Types.Scope().Lookup(typ).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == field {
					t.Errorf("%s: %s.%s is back, a format v1 reader's", prog.Fset.Position(st.Field(i).Pos()), typ, field)
				}
			}
		}
	}
	var frameReaders []string
	funcNodes(t, fset, "internal/wal/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isIdent(call.Fun, "frame8") {
			frameReaders = append(frameReaders, fn.Name.Name)
		}
	})
	sort.Strings(frameReaders)
	if got, want := strings.Join(frameReaders, " "), "DecodeFrames scanBytes"; got != want {
		t.Errorf("frame8 is called from [%s], want [%s]: one call each", got, want)
	}

	// Crash images come from internal/crashtest alone: no non-test file
	// imports it, no file outside it and internal/wal calls
	// wal.ScanSegment, and no test file declares a helper of its own under
	// the names the kit replaced.
	replaced := map[string]bool{}
	for _, name := range []string{"readStream", "segmentSpans", "buildCrashDir", "buildCrashCampaign", "copyTree",
		"copyDir", "copyFile", "dropLastRecord", "frameEnd", "tornVariant"} {
		replaced[name] = true
	}
	kitImports, kitScans := 0, 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, test := filepath.ToSlash(filepath.Dir(path)), strings.HasSuffix(path, "_test.go")
		for _, imp := range file.Imports {
			if imp.Path.Value == `"docs/internal/crashtest"` {
				if !test {
					t.Errorf("%s imports docs/internal/crashtest, which only tests may", fset.Position(imp.Pos()))
				}
				kitImports++
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "ScanSegment" && isIdent(n.X, "wal") {
					if dir != "internal/crashtest" && dir != "internal/wal" {
						t.Errorf("%s calls wal.ScanSegment; outside internal/wal only internal/crashtest may", fset.Position(n.Pos()))
					}
					kitScans++
				}
			case *ast.FuncDecl:
				if test && replaced[n.Name.Name] {
					t.Errorf("%s declares %s, which internal/crashtest replaced", fset.Position(n.Pos()), n.Name.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if kitImports == 0 || kitScans == 0 {
		t.Errorf("found %d imports of internal/crashtest and %d calls of wal.ScanSegment: the check no longer sees them", kitImports, kitScans)
	}

	// A task's truth state is built on one path: only the engine's
	// materialise makes an incTask — a literal, new(incTask) or a slab of
	// them — or enters one in the engine's list of them (made). A latent
	// task holds nothing, and the lease table keeps its counters by
	// publication position, not in a map of its own (leaseTable.counts).
	builds := 0
	funcNodes(t, fset, "internal/truth/*.go", func(fn *ast.FuncDecl, n ast.Node) {
		var site ast.Node
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isIdent(n.Type, "incTask") {
				site = n
			}
		case *ast.CallExpr:
			if isIdent(n.Fun, "new") || isIdent(n.Fun, "make") {
				if typ := types.ExprString(n.Args[0]); typ == "incTask" || typ == "[]incTask" {
					site = n
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if types.ExprString(lhs) == "inc.made" {
					site = n
				}
			}
		}
		if site == nil {
			return
		}
		if fn.Name.Name != "materialise" {
			t.Errorf("%s: %s builds or registers an incTask; only materialise may", fset.Position(site.Pos()), fn.Name.Name)
		}
		builds++
	})
	if builds == 0 {
		t.Error("found no incTask built: the check no longer sees materialise")
	}
	for _, pkg := range prog.Packages {
		if pkg.Path != "docs/internal/core" {
			continue
		}
		st := pkg.Types.Scope().Lookup("leaseTable").Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Name() == "counts" {
				t.Errorf("%s: leaseTable.counts is back: a task's lease counter lives at its publication position", prog.Fset.Position(f.Pos()))
			}
		}
		for _, name := range []string{"System", "Batch", "taskOrder", "candidateIndex", "leaseTable"} {
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if m, ok := f.Type().Underlying().(*types.Map); ok && types.Identical(m.Key(), types.Typ[types.Int]) {
					t.Errorf("%s: %s.%s is a %s: a published task is found by the one ID → position lookup (taskOrder)",
						prog.Fset.Position(f.Pos()), name, f.Name(), f.Type())
				}
				if typ := types.TypeString(f.Type(), nil); typ == "[]*docs/internal/model.Task" || typ == "[]docs/internal/model.Task" {
					t.Errorf("%s: %s.%s is a %s: a published task is a row of the task table, not a struct of its own",
						prog.Fset.Position(f.Pos()), name, f.Name(), f.Type())
				}
			}
		}
	}
	// A regular answer is held once, in core's columnar answer log: no field
	// of core's System or workerState, or of the truth engine's incTask,
	// holds answers as []model.Answer or keeps a map keyed by a task (an
	// integer), such as the per-worker answered set T(w) was.
	held := 0
	for _, pkg := range prog.Packages {
		var names []string
		switch pkg.Path {
		case "docs/internal/core":
			names = []string{"System", "workerState"}
		case "docs/internal/truth":
			names = []string{"incTask"}
		}
		for _, name := range names {
			held++
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				answers := types.TypeString(f.Type(), nil) == "[]docs/internal/model.Answer"
				var taskKeyed bool
				if m, ok := f.Type().Underlying().(*types.Map); ok {
					key, ok := m.Key().Underlying().(*types.Basic)
					taskKeyed = ok && key.Info()&types.IsInteger != 0
				}
				if answers || taskKeyed {
					t.Errorf("%s: %s.%s is a %s: the answer log's columns are the one holder of a regular answer",
						prog.Fset.Position(f.Pos()), name, f.Name(), f.Type())
				}
			}
		}
	}
	if held != 3 {
		t.Errorf("checked %d structs for held answers, want 3: the check no longer sees them", held)
	}

	// A task has one address below the core, its publication position: no
	// field of these types is a map keyed by an integer, directly or inside
	// a type it holds by value or as an element (of a slice, an array or a
	// map), such as the engine's task map, a rerun's ID -> index map and
	// pinned truths, and the answer index's ID -> group map were.
	var intKeyed func(t types.Type, seen map[types.Type]bool) bool
	intKeyed = func(t types.Type, seen map[types.Type]bool) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Map:
			key, ok := u.Key().Underlying().(*types.Basic)
			return (ok && key.Info()&types.IsInteger != 0) || intKeyed(u.Elem(), seen)
		case *types.Slice:
			return intKeyed(u.Elem(), seen)
		case *types.Array:
			return intKeyed(u.Elem(), seen)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if intKeyed(u.Field(i).Type(), seen) {
					return true
				}
			}
		}
		return false
	}
	addressed := 0
	for _, pkg := range prog.Packages {
		names := map[string][]string{
			"docs/internal/truth": {"Incremental", "incTask", "Options", "Result"},
			"docs/internal/model": {"LogIndex"},
			"docs/internal/core":  {"System", "candidateIndex", "leaseTable"},
		}[pkg.Path]
		for _, name := range names {
			addressed++
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); intKeyed(f.Type(), map[types.Type]bool{}) {
					t.Errorf("%s: %s.%s is a %s, which holds a map keyed by an integer: a task below the core is found by its position",
						prog.Fset.Position(f.Pos()), name, f.Name(), f.Type())
				}
			}
		}
	}
	if addressed != 8 {
		t.Errorf("checked %d structs for integer-keyed maps, want 8: the check no longer sees them", addressed)
	}

	// A worker's serving state has one address, their truth-engine handle:
	// no field of core's System or workerState holds a map keyed by a
	// string, directly or inside an array or struct it holds by value, such
	// as the 32 name-keyed shard maps were.
	var nameKeyed func(t types.Type) bool
	nameKeyed = func(t types.Type) bool {
		switch u := t.Underlying().(type) {
		case *types.Map:
			key, ok := u.Key().Underlying().(*types.Basic)
			return ok && key.Info()&types.IsString != 0
		case *types.Array:
			return nameKeyed(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if nameKeyed(u.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	for _, pkg := range prog.Packages {
		if pkg.Path != "docs/internal/core" {
			continue
		}
		for _, name := range []string{"System", "workerState"} {
			st := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); nameKeyed(f.Type()) {
					t.Errorf("%s: %s.%s is a %s, which holds a map keyed by a string: a worker's serving state lives at their handle",
						prog.Fset.Position(f.Pos()), name, f.Name(), f.Type())
				}
			}
		}
	}

	// The locks the serving core, the truth engine and the campaign registry
	// declare — as a field of a named struct, a package variable or a local
	// — are these, and only these: the publish's DVE fan-out shares one
	// domain table, the rest table is shared by every campaign's engine, a
	// request looks a worker's handle up beside the writer that interns new
	// ones, Results' store writes run off the writer, and the registry's
	// name table is read by every call and written by Create. A campaign's
	// lifecycle runs on its writer, so no registry lock guards it.
	allowed := "core.System.resultsMu core.domainTable.mu registry.Registry.mu truth.restMu truth.workerTable.mu"
	var locks []string
	isLock := func(typ types.Type) bool {
		s := types.TypeString(typ, nil)
		return s == "sync.Mutex" || s == "sync.RWMutex"
	}
	for _, pkg := range prog.Packages {
		name, ok := map[string]string{"docs/internal/core": "core", "docs/internal/registry": "registry", "docs/internal/truth": "truth"}[pkg.Path]
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, id := range scope.Names() {
			switch obj := scope.Lookup(id).(type) {
			case *types.Var:
				if isLock(obj.Type()) {
					locks = append(locks, name+"."+id)
				}
			case *types.TypeName:
				if st, ok := obj.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						if isLock(st.Field(i).Type()) {
							locks = append(locks, name+"."+id+"."+st.Field(i).Name())
						}
					}
				}
			}
		}
		for id, obj := range pkg.Info.Defs {
			if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != scope && isLock(v.Type()) {
				locks = append(locks, name+".local "+id.Name)
			}
		}
	}
	sort.Strings(locks)
	if got := strings.Join(locks, " "); got != allowed {
		t.Errorf("internal/core, internal/truth and internal/registry declare the locks [%s], want only [%s]: a campaign's mutations and its lifecycle run on its one writer", got, allowed)
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
