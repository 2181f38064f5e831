package docs_test

import (
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"docs/internal/lint"
)

// TestOneReaderOneWriter keeps each durable-bytes primitive, each format
// reader and each state builder single, so that the served state is the
// serial replay of one log. It reads the module as lint.LoadModule
// type-checks it, so every rule names a resolved object: a call, a method
// value, a reference through an import alias and a write all count. The
// rules are one table of sites, a list of retired spellings, the field
// shapes of the structs that hold a campaign, the locks by name, and two
// bespoke checks (statsJSON's keys, the one version constant); only the
// retired test helpers and the test rules — who may scan a segment, who
// compares campaign states — need a parse, of the _test.go files. A rule
// that finds nothing it names fails too: the check no longer sees it.
func TestOneReaderOneWriter(t *testing.T) {
	prog, err := lint.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	// Each rule: under directory in ("" for the module, "." for the root
	// package), the uses of name lie at these sites only. A site is a file
	// (.go), a directory (/) or a function, which must hold exactly as many
	// uses as the list names it. A name is a function or method
	// (types.Func.FullName), a package-level object, an import path, a field
	// (T.f; =T.f a write of it, =T.f[] of one of its elements), a method
	// through a package variable or a field (v.M), any interface's method M
	// ((interface).M), a literal (T{}), a new(T)/make(T), or a quoted string
	// constant, with "docs/internal/" dropped.
	rules := []struct {
		in, name string
		at       []string
	}{
		// One varint reader, with the canonical-encoding rule; one atomic
		// replace, the fsync-rename-fsync protocol, and no file staged under
		// a random name a crash would strand; one counted fsync helper, so
		// wal.Fsyncs sees every sync, and no Sync called through an
		// interface, which may hold an *os.File; only tests fail one on
		// purpose.
		{"", "encoding/binary.Uvarint", []string{"(*wal.Cursor).Uvarint"}},
		{"", "os.Rename", []string{"wal.WriteFileAtomic"}},
		{"", "os.CreateTemp", nil},
		{"", "(*os.File).Sync", []string{"wal.fsync"}},
		{"", "(interface).Sync", nil},
		{"", "wal.FailFsyncAt", nil},
		// One frame checksum, beside the frame readers and writers; one
		// segment magic, beside its writer and reader; the 8-byte frame reads
		// DecodeFrames' frames and the segment header, once each.
		{"", "hash/crc32", []string{"internal/wal/record.go"}},
		{"", `"DWAL"`, []string{"internal/wal/wal.go"}},
		{"", "wal.frame8", []string{"wal.DecodeFrames", "wal.scanBytes"}},
		// A publish record has one reader: applyRecord decodes it, and only
		// that unpacks its blob. The task table has one builder, which a
		// publish runs on the blob it packed, and which alone validates a
		// table's vectors.
		{"", "core.decodePublication", []string{"(*core.System).applyRecord"}},
		{"", "core.unpackPublication", []string{"core.decodePublication"}},
		{"", "core.decodeBinaryPublication", []string{"(*core.System).PublishBatch", "core.decodePublication"}},
		{"", "core.validateVector", []string{"core.decodeBinaryPublication"}},
		// The publication is the one compressed blob. A decode runs no
		// writer, and nothing allocates one of flate's own (≈807 KB each):
		// a publish takes the pooled packer.
		{"", "compress/flate", []string{"internal/core/publication.go"}},
		{"", "compress/lzw", nil},
		{"", "compress/flate.NewWriter", nil},
		{"", "core.deflaters.Get", []string{"(*core.System).linkAndPack"}},
		{"", "unsafe", []string{"internal/core/table.go"}},
		// A request body has one reader, which reads it whole, and the
		// /publish scanner one caller, the decoder handlePublish hands it.
		{"", "net/http.Request.Body", []string{"httpapi.decodeBody"}},
		{"internal/httpapi", "encoding/json.NewDecoder", nil},
		{"", "httpapi.scanPublish", []string{"(*httpapi.publication).decode"}},
		// No record is JSON, and the worker store rides the log.
		{"internal/store", "os", nil},
		{"internal/store", "encoding/json", nil},
		{"internal/core", "encoding/json", nil},
		{"internal/wal", "encoding/json", nil},
		// A state snapshot has one writer, run by Hibernate, and one
		// installer; a wake is a boot.
		{"", "(*core.System).snapshotPass", []string{"(*core.System).Hibernate"}},
		{"", "(*truth.Incremental).RestoreTask", []string{"(*core.System).installSnapshot"}},
		// A rerun reads the answer log where it lies: one inference call,
		// an AnswerSet only for Answers, the log read through logPrefix and
		// appended by submitOne alone.
		{"", "truth.InferIndex", []string{"truth.Infer", "(*core.System).infer"}},
		{"internal/core", "truth.Infer", nil},
		{"internal/core", "model.NewAnswerSet", []string{"(*core.System).Answers"}},
		{"", "core.System.log", []string{"(*core.System).logPrefix", "(*core.System).submitOne", "(*core.System).submitOne"}},
		{"", "=core.System.log", []string{"(*core.System).submitOne"}},
		// A campaign is a registry's: the registry's wake builds it, the
		// root package reaches the store through a registry, and a
		// campaign's life is published by newCampaign, move and land alone.
		{"", "core.New", []string{"(*registry.Registry).wake"}},
		{".", "docs/internal/store", nil},
		{"", "registry.campaign.life.Store", []string{"registry.newCampaign", "(*registry.campaign).land"}},
		{"", "registry.campaign.life.CompareAndSwap", []string{"(*registry.campaign).move"}},
		// A task's truth state has one builder, the engine's materialise.
		{"", "truth.incTask{}", nil},
		{"", "new(truth.incTask)", nil},
		{"", "make([]truth.incTask)", []string{"(*truth.Incremental).materialise"}},
		{"", "=truth.Incremental.made", []string{"(*truth.Incremental).materialise", "(*truth.Incremental).materialise"}},
		// The engine's ID-keyed surface has one caller, docs-perf's ladder:
		// everything else holds a task by its position.
		{"", "(*truth.Incremental).AddTask", []string{"cmd/docs-perf/layers.go"}},
		{"", "(*truth.Incremental).Submit", []string{"cmd/docs-perf/layers.go"}},
		{"", "(*truth.Incremental).View", []string{"cmd/docs-perf/layers.go"}},
		// One DOCS: an experiment's DOCS arm drives the served core.
		{"internal/experiment", "truth.NewIncremental", nil},
		// A task's domain vector is one its publication's tasks share:
		// nothing that holds a published task writes an element of one.
		{"", "=model.Task.Domain[]", []string{"cmd/docs-perf/layers.go"}},
		// Crash images come from internal/crashtest, which only tests import;
		// outside internal/wal, no test scans a segment itself (below).
		{"", "docs/internal/crashtest", nil},
		{"", "wal.ScanSegment", []string{"internal/crashtest/"}},
		// The worker's serving state is at their engine handle.
		{"", "docs/internal/shard", nil},
	}
	// A format nothing writes has no reader, so its magics and names are
	// spelled nowhere, as an identifier or a string constant (wal.X: declared
	// in internal/wal); nothing mints a session scope; and no test declares
	// a helper under a name internal/crashtest replaced.
	retired := map[string]bool{}
	for _, s := range strings.Fields(`DBB1 DPB1 DPB2 DPB3 DPC3 DOCSSNP3 DOCSSNP4 decodeLegacy restoreSnapshot
		readPublication wal.Decode wal.headerV1 wal.formatV1 MintScope readStream segmentSpans buildCrashDir
		buildCrashCampaign copyTree copyDir copyFile dropLastRecord frameEnd tornVariant captureImage recoverImage
		runLoggedAdversarialCampaign runLoggedBatchedCampaign buildHibernateCrashFixture buildAnswerFreeFixture
		bootAndCheck driveInterleaved`) {
		retired[s] = true
	}
	short := func(s string) string { return strings.ReplaceAll(s, "docs/internal/", "") }
	// A site is one use: its file and the function, package-level
	// declaration or import it lies in.
	type site struct {
		file, fn string
		pos      token.Pos
	}
	uses := map[string][]site{}
	known := map[string]bool{}
	var locks, versions []string
	for _, pkg := range prog.Packages {
		info, name := pkg.Info, pkg.Types.Name()
		for _, imp := range pkg.Types.Imports() {
			for _, id := range imp.Scope().Names() {
				known[short(imp.Path()+"."+id)] = true
			}
		}
		field := func(sel *types.Selection) string {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			return short(types.TypeString(recv, nil) + "." + sel.Obj().Name())
		}
		// holder names the package variable or the field an expression is.
		holder := func(e ast.Expr) string {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				if v, ok := info.Uses[e].(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
					return short(v.Pkg().Path() + "." + v.Name())
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
					return field(sel)
				}
			}
			return ""
		}
		for _, file := range pkg.Files {
			at := site{file: filepath.ToSlash(prog.Fset.Position(file.Pos()).Filename)}
			add := func(key string, pos token.Pos) {
				at.pos = pos
				uses[key] = append(uses[key], at)
			}
			at.fn = "an import"
			for _, imp := range file.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				add(p, imp.Pos())
			}
			// write records a write of e, or of one of its elements.
			write := func(e ast.Expr, elem bool) {
				switch x := ast.Unparen(e).(type) {
				case *ast.SliceExpr:
					e, elem = x.X, true
				case *ast.IndexExpr:
					e, elem = x.X, true
				}
				if h := holder(e); h != "" && elem {
					add("="+h+"[]", e.Pos())
				} else if h != "" {
					add("="+h, e.Pos())
				}
			}
			for _, decl := range file.Decls {
				at.fn = "a package-level declaration"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					at.fn = short(info.Defs[fd.Name].(*types.Func).FullName())
				}
				owner := ""
				ast.Inspect(decl, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if tv := info.Types[e]; tv.Value != nil && tv.Value.Kind() == constant.String {
							s := constant.StringVal(tv.Value)
							if retired[s] {
								t.Errorf("%s: %q is spelled: a retired format has no reader", prog.Fset.Position(e.Pos()), s)
							}
							add(strconv.Quote(s), e.Pos())
						}
					}
					switch n := n.(type) {
					case *ast.TypeSpec:
						owner = n.Name.Name
					case *ast.Ident:
						if retired[n.Name] || info.Defs[n] != nil && retired[name+"."+n.Name] {
							t.Errorf("%s: %s is spelled: a retired format has no reader", prog.Fset.Position(n.Pos()), n.Name)
						}
						switch obj := info.Defs[n].(type) {
						case *types.Func:
							known[short(obj.FullName())] = true
						case *types.TypeName:
							typ := short(obj.Pkg().Path() + "." + obj.Name())
							known[typ+"{}"], known["new("+typ+")"], known["make([]"+typ+")"] = true, true, true
						case *types.Const:
							if obj.Parent() == pkg.Types.Scope() && strings.Contains(strings.ToLower(obj.Name()), "version") {
								versions = append(versions, name+"."+obj.Name())
							}
						case *types.Var:
							if s := types.TypeString(obj.Type(), nil); s == "sync.Mutex" || s == "sync.RWMutex" {
								switch {
								case obj.IsField():
									locks = append(locks, name+"."+owner+"."+obj.Name())
								case obj.Parent() == pkg.Types.Scope():
									locks = append(locks, name+"."+obj.Name())
								default:
									locks = append(locks, name+".local "+obj.Name())
								}
							}
						}
						switch obj := info.Uses[n].(type) {
						case *types.Func:
							add(short(obj.FullName()), n.Pos())
							// Any method may be reached through an interface.
							if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
								known["(interface)."+obj.Name()] = true
								if types.IsInterface(recv.Type()) {
									add("(interface)."+obj.Name(), n.Pos())
								}
							}
						case *types.Var, *types.Const, *types.TypeName:
							if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
								add(short(obj.Pkg().Path()+"."+obj.Name()), n.Pos())
							}
						}
					case *ast.SelectorExpr:
						if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
							add(field(sel), n.Pos())
						} else if h := holder(n.X); sel != nil && h != "" {
							add(h+"."+n.Sel.Name, n.Pos())
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							write(lhs, false)
						}
					case *ast.IncDecStmt:
						write(n.X, false)
					case *ast.CompositeLit:
						add(short(types.TypeString(info.TypeOf(n), nil))+"{}", n.Pos())
					case *ast.CallExpr:
						fun := ast.Unparen(n.Fun)
						if s, ok := fun.(*ast.SelectorExpr); ok {
							fun = s.Sel
						}
						id, _ := fun.(*ast.Ident)
						switch f := info.Uses[id].(type) {
						case *types.Builtin:
							if f.Name() == "new" || f.Name() == "make" {
								add(f.Name()+"("+short(types.TypeString(info.TypeOf(n.Args[0]), nil))+")", n.Pos())
							} else if f.Name() == "copy" || f.Name() == "clear" {
								write(n.Args[0], true)
							}
						case *types.Func:
							if f.Name() == "Scatter" && len(n.Args) > 0 {
								write(n.Args[0], true)
							}
						}
					}
					return true
				})
			}
		}
	}
	for key := range uses {
		known[key] = true
	}
	for _, r := range rules {
		count, want := map[string]int{}, map[string]int{}
		for _, a := range r.at {
			want[a]++
		}
		for _, u := range uses[r.name] {
			if dir := path.Dir(u.file); r.in != "" && dir != r.in && !strings.HasPrefix(dir, r.in+"/") {
				continue
			}
			i := slices.IndexFunc(r.at, func(a string) bool {
				return a == u.fn || a == u.file || strings.HasSuffix(a, "/") && strings.HasPrefix(u.file, a)
			})
			if i < 0 {
				t.Errorf("%s: %s names %s, which only %v may", prog.Fset.Position(u.pos), u.fn, r.name, r.at)
				continue
			}
			count[r.at[i]]++
		}
		// A rule about the module's own names (no "/") must still find one.
		if r.at == nil && !known[r.name] && !strings.Contains(r.name, "/") {
			t.Errorf("%s names nothing the module declares or imports: the check no longer sees it", r.name)
		}
		for a, n := range want {
			if fn := !strings.HasSuffix(a, ".go") && !strings.HasSuffix(a, "/"); fn && count[a] != n || count[a] == 0 {
				t.Errorf("%s: %d uses at %s, want %d", r.name, count[a], a, n)
			}
		}
	}
	// The structs that hold a campaign keep one address of a task and of a
	// worker and one copy of an answer and of a task. A field may not hold
	// (int) a map keyed by an integer or (name) by a string, directly or in
	// a value, an element or a map value it holds; nor be (answers) a
	// []model.Answer or (tasks) a []model.Task or []*model.Task; -f names a
	// retired field.
	why := map[string]string{
		"int":      "a task below the core is found by its publication position",
		"name":     "a worker's serving state lives at their engine handle",
		"answers":  "the answer log's columns are the one holder of a regular answer",
		"tasks":    "a published task is a row of the task table",
		"-counts":  "a task's lease counter lives at its publication position",
		"-sealed":  "format v1 has no reader",
		"-version": "format v1 has no reader",
	}
	shapes := map[string]string{
		"core.System": "int name answers tasks", "core.workerState": "int name answers", "core.Batch": "int tasks",
		"core.taskOrder": "int tasks", "core.candidateIndex": "int tasks", "core.leaseTable": "int tasks -counts",
		"truth.Incremental": "int", "truth.incTask": "int answers", "truth.Options": "int", "truth.Result": "int",
		"model.LogIndex": "int", "wal.Log": "-sealed", "wal.scanned": "-version",
	}
	var keyed func(typ types.Type, kind types.BasicInfo, seen map[types.Type]bool) bool
	keyed = func(typ types.Type, kind types.BasicInfo, seen map[types.Type]bool) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Map:
			key, ok := u.Key().Underlying().(*types.Basic)
			return ok && key.Info()&kind != 0 || keyed(u.Elem(), kind, seen)
		case *types.Slice:
			return keyed(u.Elem(), kind, seen)
		case *types.Array:
			return keyed(u.Elem(), kind, seen)
		case *types.Struct:
			for i := range u.NumFields() {
				if keyed(u.Field(i).Type(), kind, seen) {
					return true
				}
			}
		}
		return false
	}
	structs := map[string]*types.Struct{}
	for _, pkg := range prog.Packages {
		for _, id := range pkg.Types.Scope().Names() {
			if st, ok := pkg.Types.Scope().Lookup(id).Type().Underlying().(*types.Struct); ok {
				structs[short(pkg.Path+"."+id)] = st
			}
		}
	}
	for name, want := range shapes {
		st := structs[name]
		if st == nil {
			t.Errorf("no struct %s: the check no longer sees it", name)
			continue
		}
		for i := range st.NumFields() {
			f := st.Field(i)
			typ := short(types.TypeString(f.Type(), nil))
			for _, shape := range strings.Fields(want) {
				if map[string]bool{
					"int":          keyed(f.Type(), types.IsInteger, map[types.Type]bool{}),
					"name":         keyed(f.Type(), types.IsString, map[types.Type]bool{}),
					"answers":      typ == "[]model.Answer",
					"tasks":        typ == "[]model.Task" || typ == "[]*model.Task",
					"-" + f.Name(): true,
				}[shape] {
					t.Errorf("%s: %s.%s is a %s, which %s rules out: %s", prog.Fset.Position(f.Pos()), name, f.Name(), typ, shape, why[shape])
				}
			}
		}
	}

	// Each /stats counter is declared once, on the struct of the layer that
	// owns it: statsJSON embeds core.Stats and registry.Stats and declares
	// none of the JSON keys core.Stats, core.RecoveryInfo or registry.Stats
	// carry, only the keys computed at read time.
	jsonKey := func(st *types.Struct, i int) string {
		key, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ",")
		return key
	}
	owned := map[string]string{}
	for _, name := range []string{"core.Stats", "core.RecoveryInfo", "registry.Stats"} {
		for i := range structs[name].NumFields() {
			if key := jsonKey(structs[name], i); key != "" && key != "-" {
				owned[key] = name
			}
		}
	}
	if len(owned) == 0 {
		t.Error("found no JSON key on the counter structs: the check no longer sees their tags")
	}
	var embeds []string
	resp := structs["httpapi.statsJSON"]
	for i := range resp.NumFields() {
		if f := resp.Field(i); f.Embedded() {
			embeds = append(embeds, short(types.TypeString(types.Unalias(f.Type()), nil)))
		} else if owner, ok := owned[jsonKey(resp, i)]; ok {
			t.Errorf("%s: statsJSON.%s declares the key %q, which %s owns: embed it instead", prog.Fset.Position(f.Pos()), f.Name(), jsonKey(resp, i), owner)
		}
	}
	if got := strings.Join(embeds, " "); got != "core.Stats registry.Stats" {
		t.Errorf("statsJSON embeds [%s], want [core.Stats registry.Stats]", got)
	}

	// The one parse of test files: no test declares a retired helper; some
	// test imports internal/crashtest; and a test names each function below,
	// under whatever name it imports the package (bare in the package's own
	// tests), only at its places — directories (/), or files, each of which
	// must name it.
	testRules := []struct{ pkg, name, why, places string }{
		{"internal/wal", "ScanSegment", "outside internal/wal, only internal/crashtest scans a segment",
			"internal/wal/ internal/crashtest/"},
		{"internal/core", "DiffFingerprints", "a suite that compares campaign states runs on crashtest.Run, through its package's campaign adapter",
			"internal/core/scenario_test.go internal/registry/scenario_test.go"},
	}
	named := map[string]int{}
	fset := token.NewFileSet()
	kitImports := 0
	for _, pkg := range prog.Packages {
		files, err := filepath.Glob(filepath.Join(filepath.Dir(prog.Fset.Position(pkg.Files[0].Pos()).Filename), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && retired[fd.Name.Name] {
					t.Errorf("%s declares %s, which internal/crashtest replaced", fset.Position(fd.Pos()), fd.Name.Name)
				}
			}
			for _, r := range testRules {
				local, imported := filepath.ToSlash(filepath.Dir(name)) == r.pkg, ""
				for _, imp := range file.Imports {
					switch p, _ := strconv.Unquote(imp.Path.Value); {
					case p == "docs/internal/crashtest" && r.pkg == "internal/wal":
						kitImports++
					case p == "docs/"+r.pkg && imp.Name != nil:
						local, imported = false, imp.Name.Name
					case p == "docs/"+r.pkg:
						local, imported = false, path.Base(p)
					}
				}
				sel := map[*ast.Ident]bool{} // the names a selector picks
				ast.Inspect(file, func(n ast.Node) bool {
					if s, ok := n.(*ast.SelectorExpr); ok {
						sel[s.Sel] = true
						if x, ok := s.X.(*ast.Ident); !ok || x.Name != imported || s.Sel.Name != r.name {
							return true
						}
					} else if id, ok := n.(*ast.Ident); !ok || !local || id.Name != r.name || sel[id] {
						return true
					}
					at := filepath.ToSlash(name)
					if !slices.ContainsFunc(strings.Fields(r.places), func(p string) bool { return at == p || strings.HasSuffix(p, "/") && strings.HasPrefix(at, p) }) {
						t.Errorf("%s names %s.%s: %s (test rule %s)", fset.Position(n.Pos()), path.Base(r.pkg), r.name, r.why, r.name)
					}
					named[r.name+" "+at]++
					return true
				})
			}
		}
	}
	if kitImports == 0 {
		t.Error("no test imports internal/crashtest: the check no longer sees it")
	}
	for _, r := range testRules {
		for _, place := range strings.Fields(r.places) {
			if !strings.HasSuffix(place, "/") && named[r.name+" "+place] == 0 {
				t.Errorf("%s names no %s.%s: the check no longer sees it", place, path.Base(r.pkg), r.name)
			}
		}
	}

	sort.Strings(locks)
	if got, want := strings.Join(locks, " "), "core.System.resultsMu registry.Registry.mu store.Store.mu truth.restMu truth.workerTable.mu wal.Log.ioMu wal.Log.mu"; got != want {
		t.Errorf("the module declares the locks [%s], want only [%s]: a campaign's mutations and its lifecycle run on its one writer", got, want)
	}
	if got := strings.Join(versions, " "); got != "wal.formatVersion" {
		t.Errorf("the module declares the version constants [%s], want [wal.formatVersion]: the segment header's version is the one format number", got)
	}
}
