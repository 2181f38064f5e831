package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// walswitchAnalyzer makes record-kind dispatch exhaustive: for every type
// declared //docs:exhaustive (wal.Kind), every switch over a value of the
// type — the live apply path, recovery replay, wire encoders — must mention every declared constant of the type. A default
// clause does NOT satisfy a missing constant: the default is the
// unknown-kind error path, and "new kind falls into the error arm" is
// exactly the silent-skip regression this analyzer exists to prevent.
// Adding a KindBatch-style record therefore fails the build until every
// consumer has decided what to do with it.
var walswitchAnalyzer = &Analyzer{
	Name: "walswitch",
	Doc:  "switches over //docs:exhaustive types must handle every constant",
	Run:  runWalswitch,
}

func runWalswitch(prog *Program) []Finding {
	var out []Finding
	for key := range prog.dirs.exhaustive {
		dot := strings.LastIndex(key, ".")
		pkgPath, typeName := key[:dot], key[dot+1:]
		var named types.Type
		for _, pkg := range prog.Packages {
			if pkg.Path == pkgPath {
				if tn, ok := pkg.Types.Scope().Lookup(typeName).(*types.TypeName); ok {
					named = tn.Type()
				}
			}
		}
		if named == nil {
			continue
		}

		// Every declared constant of the type, across the whole program.
		consts := map[string]types.Object{}
		for _, pkg := range prog.Packages {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if c, ok := obj.(*types.Const); ok && types.Identical(c.Type(), named) {
					consts[c.Val().ExactString()] = c
				}
			}
		}
		if len(consts) == 0 {
			continue
		}

		for _, pkg := range prog.Packages {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					sw, ok := n.(*ast.SwitchStmt)
					if !ok || sw.Tag == nil {
						return true
					}
					tv, ok := pkg.Info.Types[sw.Tag]
					if !ok || !types.Identical(tv.Type, named) {
						return true
					}
					handled := map[string]bool{}
					for _, stmt := range sw.Body.List {
						cc, ok := stmt.(*ast.CaseClause)
						if !ok {
							continue
						}
						for _, e := range cc.List {
							if cv, ok := pkg.Info.Types[e]; ok && cv.Value != nil {
								handled[cv.Value.ExactString()] = true
							}
						}
					}
					var missing []string
					for val, obj := range consts {
						if !handled[val] {
							missing = append(missing, obj.Name())
						}
					}
					if len(missing) > 0 {
						sort.Strings(missing)
						out = append(out, prog.finding("walswitch", sw.Pos(),
							"switch over %s.%s misses %s — every record kind needs an explicit case (a default does not count)",
							shortPkg(pkgPath), typeName, strings.Join(missing, ", ")))
					}
					return true
				})
			}
		}
	}
	return out
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
