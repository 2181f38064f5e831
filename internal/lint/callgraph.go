package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcInfo is one analyzable function declaration: its body and the
// package it lives in.
type funcInfo struct {
	// Name is a human-readable name for path reporting: "Fingerprint",
	// "(*System).applyRecord".
	Name string
	Pkg  *Package
	Decl *ast.FuncDecl
	Obj  *types.Func
}

func (fi *funcInfo) body() *ast.BlockStmt { return fi.Decl.Body }

func (fi *funcInfo) pos() token.Pos { return fi.Decl.Pos() }

// funcIndex resolves *types.Func objects to the declarations carrying
// their bodies, across every package in the program.
type funcIndex struct {
	byObj map[*types.Func]*funcInfo
	// all is every declared function in deterministic order.
	all []*funcInfo
}

func indexFuncs(prog *Program) *funcIndex {
	idx := &funcIndex{byObj: map[*types.Func]*funcInfo{}}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				fi := &funcInfo{Name: declName(fd), Pkg: pkg, Decl: fd, Obj: obj}
				if obj != nil {
					idx.byObj[obj] = fi
				}
				idx.all = append(idx.all, fi)
			}
		}
	}
	return idx
}

func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	return "(" + typeText(recv) + ")." + fd.Name.Name
}

func typeText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeText(t.X)
	case *ast.IndexExpr:
		return typeText(t.X)
	case *ast.IndexListExpr:
		return typeText(t.X)
	}
	return "?"
}

// calleeOf resolves a call expression to the *types.Func it invokes
// statically: a package function, a method (by declared receiver), or nil
// for dynamic calls (function values, interface methods without bodies in
// the program still resolve to their *types.Func — the caller decides what
// to do when no body is indexed).
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// callsIn returns every call expression lexically inside root (including
// inside nested function literals), in source order.
func callsIn(root ast.Node) []*ast.CallExpr {
	var calls []*ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, c)
		}
		return true
	})
	return calls
}

// reachableFrom walks the static call graph from the given roots and
// returns every function (with a body in the program) reachable from
// them, each annotated with one shortest call path for reporting.
func reachableFrom(prog *Program, roots []*funcInfo) map[*funcInfo][]string {
	type item struct {
		fi   *funcInfo
		path []string
	}
	seen := map[*funcInfo][]string{}
	var queue []item
	for _, r := range roots {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = []string{r.Name}
		queue = append(queue, item{r, []string{r.Name}})
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, call := range callsIn(it.fi.body()) {
			obj := calleeOf(it.fi.Pkg, call)
			if obj == nil {
				continue
			}
			callee, ok := prog.funcs.byObj[obj]
			if !ok {
				continue // no body in the program (stdlib, interface method)
			}
			if _, ok := seen[callee]; ok {
				continue
			}
			path := append(append([]string(nil), it.path...), callee.Name)
			seen[callee] = path
			queue = append(queue, item{callee, path})
		}
	}
	return seen
}

// pathString renders a call path as "a → b → c".
func pathString(path []string) string {
	out := ""
	for i, p := range path {
		if i > 0 {
			out += " → "
		}
		out += p
	}
	return out
}
