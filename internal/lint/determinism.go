package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinismAnalyzer proves the bit-exactness contract's static half: it
// computes the call graph reachable from every //docs:deterministic root
// (Fingerprint, the snapshot/WAL encoders, the replay entry points) and
// rejects three sources of nondeterminism inside it:
//
//   - wall-clock reads (time.Now/Since/Until),
//   - the global math/rand generators (seeded *rand.Rand values are fine —
//     they replay bit-identically; the package-level functions do not),
//   - iteration over a map whose order can escape the loop: any write to
//     state that outlives the iteration, any call that can see such state,
//     or an early exit. The blessed pattern is collect-keys-then-sort (the
//     sorted-iteration sites in internal/core/fingerprint.go are the
//     model): a loop that only appends keys to a slice is accepted when
//     the slice is sorted later in the same function, and loops whose only
//     effects are keyed map inserts, integer-counter bumps, boolean flags,
//     or computation on loop-local values are order-independent and pass.
//
// Findings name the offending call path from the root, e.g.
// "Fingerprint → encodeWorkers: range over map ...".
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "nondeterminism (clock, global rand, unsorted map iteration) reachable from //docs:deterministic roots",
	Run:  runDeterminism,
}

// deterministicRoots collects every function carrying //docs:deterministic.
func deterministicRoots(prog *Program) []*funcInfo {
	var roots []*funcInfo
	for _, fi := range prog.funcs.all {
		if prog.dirs.deterministic[funcKey(fi.pos())] {
			roots = append(roots, fi)
		}
	}
	return roots
}

func runDeterminism(prog *Program) []Finding {
	var out []Finding
	reach := reachableFrom(prog, deterministicRoots(prog))
	for fi, path := range reach {
		pkg := fi.Pkg
		ast.Inspect(fi.body(), func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.SelectorExpr:
				if f, ok := pkg.Info.Uses[node.Sel].(*types.Func); ok && f.Pkg() != nil {
					switch f.Pkg().Path() {
					case "time":
						switch f.Name() {
						case "Now", "Since", "Until":
							out = append(out, prog.finding("determinism", node.Pos(),
								"wall-clock read time.%s in deterministic path %s",
								f.Name(), pathString(path)))
						}
					case "math/rand", "math/rand/v2":
						// Only package-level functions (the shared global
						// source); methods on a seeded *rand.Rand replay
						// bit-identically and pass.
						if f.Type().(*types.Signature).Recv() == nil {
							out = append(out, prog.finding("determinism", node.Pos(),
								"global %s.%s in deterministic path %s — use a seeded *rand.Rand",
								f.Pkg().Name(), f.Name(), pathString(path)))
						}
					}
				}
			case *ast.RangeStmt:
				if f := checkMapRange(prog, fi, node, path); f != nil {
					out = append(out, *f)
				}
			}
			return true
		})
	}
	return out
}

// checkMapRange classifies one range statement: nil if it does not range
// over a map or the iteration order provably cannot escape.
func checkMapRange(prog *Program, fi *funcInfo, rs *ast.RangeStmt, path []string) *Finding {
	pkg := fi.Pkg
	tv, ok := pkg.Info.Types[rs.X]
	if !ok {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}

	local := loopLocals(pkg, rs)
	var appended []types.Object // outer slices fed by append inside the loop
	var sensitive ast.Node
	var why string
	mark := func(n ast.Node, reason string) {
		if sensitive == nil {
			sensitive, why = n, reason
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if sensitive != nil {
			return false
		}
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				var rhs ast.Expr
				if len(node.Rhs) == len(node.Lhs) {
					rhs = node.Rhs[i]
				} else if len(node.Rhs) == 1 {
					rhs = node.Rhs[0]
				}
				checkWrite(pkg, local, lhs, rhs, node.Tok, &appended, mark)
			}
		case *ast.IncDecStmt:
			checkWrite(pkg, local, node.X, nil, token.INC, &appended, mark)
		case *ast.CallExpr:
			if callEscapes(pkg, local, node) {
				mark(node, "calls "+callName(node)+" on state that outlives the iteration")
			}
		case *ast.ReturnStmt:
			mark(node, "returns from inside the loop")
		case *ast.BranchStmt:
			if node.Tok == token.BREAK || node.Tok == token.GOTO {
				mark(node, node.Tok.String()+" exits the loop early")
			}
		case *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt:
			mark(n, "defers, spawns or sends from inside the loop")
		}
		return true
	})

	if sensitive != nil {
		return ptr(prog.finding("determinism", rs.Pos(),
			"range over map in deterministic path %s: %s — iteration order can escape; sort keys first",
			pathString(path), why))
	}
	// Collect-then-sort: every outer slice the loop appended to must be
	// sorted later in the enclosing function.
	for _, obj := range appended {
		if !sortedLater(pkg, fi, obj, rs.End()) {
			return ptr(prog.finding("determinism", rs.Pos(),
				"range over map in deterministic path %s collects %q but never sorts it",
				pathString(path), obj.Name()))
		}
	}
	return nil
}

func ptr(f Finding) *Finding { return &f }

// loopLocals returns the objects declared inside the loop (including the
// range key/value variables): writes confined to them die with the
// iteration.
func loopLocals(pkg *Package, rs *ast.RangeStmt) map[types.Object]bool {
	local := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pkg.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pkg.Info.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	return local
}

// rootObj strips selectors, indexes, derefs and parens down to the base
// identifier's object.
func rootObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			if obj := pkg.Info.Uses[t]; obj != nil {
				return obj
			}
			return pkg.Info.Defs[t]
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		case *ast.CallExpr:
			e = t.Fun
		default:
			return nil
		}
	}
}

// checkWrite classifies one assignment target inside a map-range body.
func checkWrite(pkg *Package, local map[types.Object]bool, lhs, rhs ast.Expr, tok token.Token, appended *[]types.Object, mark func(ast.Node, string)) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root := rootObj(pkg, lhs)
	if root != nil && local[root] {
		return // dies with the iteration
	}
	// Keyed map insert: m[k] = v is order-independent.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if tv, ok := pkg.Info.Types[ix.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return
			}
		}
	}
	// x = append(x, ...) into an outer slice: allowed if sorted later.
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, isB := pkg.Info.Uses[id].(*types.Builtin); isB && b.Name() == "append" && root != nil {
				*appended = append(*appended, root)
				return
			}
		}
	}
	// Integer counter bumps and boolean flags are order-independent.
	if tok == token.INC || tok == token.DEC || tok == token.ADD_ASSIGN ||
		tok == token.OR_ASSIGN || tok == token.AND_ASSIGN || tok == token.XOR_ASSIGN {
		if tv, ok := pkg.Info.Types[lhs]; ok {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
				return
			}
		}
	}
	if tok == token.ASSIGN || tok == token.DEFINE {
		if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && (id.Name == "true" || id.Name == "false") {
			return
		}
	}
	name := "a value"
	if root != nil {
		name = root.Name()
	}
	mark(lhs, "writes "+name+", which outlives the iteration")
}

// callEscapes reports whether a call inside a map-range body can observe
// or mutate state that outlives the iteration: any argument (or receiver
// chain) rooted outside the loop. Builtins and conversions never escape.
func callEscapes(pkg *Package, local map[types.Object]bool, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pkg.Info.Uses[fun].(type) {
		case *types.Builtin:
			return false
		case *types.TypeName:
			return false // conversion
		}
	case *ast.SelectorExpr:
		if _, ok := pkg.Info.Uses[fun.Sel].(*types.TypeName); ok {
			return false
		}
	case *ast.ArrayType, *ast.MapType, *ast.FuncType:
		return false // conversion to composite type
	}
	// Receiver chain of a method call counts as an argument.
	args := append([]ast.Expr(nil), call.Args...)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := pkg.Info.Uses[baseIdent(sel.X)].(*types.PkgName); !isPkg {
			args = append(args, sel.X)
		}
	}
	for _, a := range args {
		if isPureLeaf(pkg, a) {
			continue
		}
		root := rootObj(pkg, a)
		if root == nil || !local[root] {
			return true
		}
	}
	return false
}

// isPureLeaf reports expressions that carry no aliased state: literals and
// constants.
func isPureLeaf(pkg *Package, e ast.Expr) bool {
	if tv, ok := pkg.Info.Types[ast.Unparen(e)]; ok && tv.Value != nil {
		return true
	}
	switch ast.Unparen(e).(type) {
	case *ast.BasicLit, *ast.CompositeLit:
		return true
	}
	return false
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if base := baseIdent(fun); base != nil && base != fun.Sel {
			return base.Name + "…." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "a function value"
}

// sortedLater reports whether obj is passed to a recognized sort call
// after pos in the enclosing function.
func sortedLater(pkg *Package, fi *funcInfo, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(fi.body(), func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		f, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || f.Pkg() == nil {
			return true
		}
		isSort := false
		switch f.Pkg().Path() {
		case "sort":
			switch f.Name() {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
				isSort = true
			}
		case "slices":
			switch f.Name() {
			case "Sort", "SortFunc", "SortStableFunc":
				isSort = true
			}
		}
		if isSort && rootObj(pkg, call.Args[0]) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
