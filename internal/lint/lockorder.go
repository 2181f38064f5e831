package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// lockorderAnalyzer statically detects the deadlock shape this repo has
// already found by hand (r.mu-under-c.mu inversions in the registry):
// acquiring a lock while holding one that the declared order says must
// come AFTER it.
//
// It is annotation-driven:
//
//	//docs:lockorder c.mu < r.mu     declares the legal order (transitive)
//	//docs:holds c.mu                this function runs with c.mu held
//	                                 (e.g. a callback invoked under a lock)
//	//docs:acquires r.mu             this function acquires r.mu in a way
//	                                 the syntactic scan cannot see
//
// Lock identity is the literal receiver spelling at the Lock/RLock call —
// "c.mu", "r.mu" — which this repo keeps unique by its
// consistent receiver naming. The analyzer also reads Lock/Unlock pairs
// syntactically and tracks position intervals, so a call made AFTER an
// Unlock (or before the Lock) is correctly treated as lock-free; an
// Unlock inside a defer holds to the end of the function. Held sets
// propagate through the static call graph, and a finding names the full
// call path from the holder to the offending acquisition.
var lockorderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisitions violating a declared //docs:lockorder",
	Run:  runLockorder,
}

// lockEvent is one syntactic Lock/RLock with the interval it covers.
type lockEvent struct {
	lock       string
	pos        token.Pos // the Lock call
	start, end token.Pos // held interval within the body
}

// lockFacts is the per-function lock model.
type lockFacts struct {
	holds    []string // //docs:holds — held for the whole body
	acquires []string // //docs:acquires — treated as held at every call
	events   []lockEvent
	calls    []lockCall
}

type lockCall struct {
	pos    token.Pos
	callee *funcInfo
}

func runLockorder(prog *Program) []Finding {
	names := prog.dirs.lockNames()
	if len(names) == 0 {
		return nil
	}
	universe := append(append([]*funcInfo(nil), prog.funcs.all...), prog.funcs.lits...)
	facts := map[*funcInfo]*lockFacts{}
	for _, fi := range universe {
		facts[fi] = gatherLockFacts(prog, fi, names)
	}

	var out []Finding
	seenFinding := map[string]bool{}
	report := func(pos token.Pos, acquired, held string, path []string) {
		key := prog.Fset.Position(pos).String() + "|" + acquired + "|" + held
		if seenFinding[key] {
			return
		}
		seenFinding[key] = true
		out = append(out, prog.finding("lockorder", pos,
			"acquires %s while holding %s (declared order: %s before %s; path: %s)",
			acquired, held, acquired, held, pathString(path)))
	}

	// visit explores fi with the inherited held set, checking every
	// acquisition (annotated or syntactic) against it and propagating
	// through call sites where anything is held.
	type memoKey struct {
		fi  *funcInfo
		key string
	}
	memo := map[memoKey]bool{}
	var visit func(fi *funcInfo, held map[string]bool, path []string, depth int)
	visit = func(fi *funcInfo, held map[string]bool, path []string, depth int) {
		if depth > 48 {
			return
		}
		mk := memoKey{fi, heldKey(held)}
		if memo[mk] {
			return
		}
		memo[mk] = true
		f := facts[fi]

		effective := map[string]bool{}
		for l := range held {
			effective[l] = true
		}
		for _, l := range f.holds {
			effective[l] = true
		}

		check := func(pos token.Pos, lock string, at map[string]bool) {
			for h := range at {
				if h != lock && prog.dirs.ordered(lock, h) {
					report(pos, lock, h, path)
				}
			}
		}
		for _, l := range f.acquires {
			check(fi.pos(), l, effective)
		}
		for _, ev := range f.events {
			at := map[string]bool{}
			for l := range effective {
				at[l] = true
			}
			for _, other := range f.events {
				if other.lock != ev.lock && other.start < ev.pos && ev.pos < other.end {
					at[other.lock] = true
				}
			}
			check(ev.pos, ev.lock, at)
		}

		for _, c := range f.calls {
			at := map[string]bool{}
			for l := range effective {
				at[l] = true
			}
			for _, l := range f.acquires {
				at[l] = true
			}
			for _, ev := range f.events {
				if ev.start <= c.pos && c.pos < ev.end {
					at[ev.lock] = true
				}
			}
			if len(at) == 0 {
				continue
			}
			visit(c.callee, at, append(append([]string(nil), path...), c.callee.Name), depth+1)
		}
	}

	for _, fi := range universe {
		visit(fi, nil, []string{fi.Name}, 0)
	}
	return out
}

func heldKey(held map[string]bool) string {
	if len(held) == 0 {
		return ""
	}
	ls := make([]string, 0, len(held))
	for l := range held {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return strings.Join(ls, ",")
}

// gatherLockFacts scans one function's own body — nested literals
// excluded, they are analyzed standalone — for lock events and call
// sites.
func gatherLockFacts(prog *Program, fi *funcInfo, lockNames map[string]bool) *lockFacts {
	f := &lockFacts{}
	key := funcKey(fi.pos())
	if args, ok := prog.dirs.marked("holds", key); ok {
		f.holds = append(f.holds, args...)
	}
	if args, ok := prog.dirs.marked("acquires", key); ok {
		f.acquires = append(f.acquires, args...)
	}

	body := fi.body()
	if body == nil {
		return f
	}
	type release struct {
		lock string
		pos  token.Pos
	}
	var releases []release
	walkOwn(body, fi.Lit, func(n ast.Node, inDefer bool) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if ok {
			lock := exprText(sel.X)
			if lockNames[lock] {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					f.events = append(f.events, lockEvent{lock: lock, pos: call.Pos(), start: call.Pos(), end: body.End()})
					return
				case "Unlock", "RUnlock":
					if !inDefer {
						releases = append(releases, release{lock, call.Pos()})
					}
					return
				}
			}
		}
		if obj := calleeOf(fi.Pkg, call); obj != nil {
			if callee, ok := prog.funcs.byObj[obj]; ok {
				f.calls = append(f.calls, lockCall{pos: call.Pos(), callee: callee})
			}
		}
	})
	// Close each acquisition at the first later non-deferred release of
	// the same lock.
	for i := range f.events {
		ev := &f.events[i]
		for _, r := range releases {
			if r.lock == ev.lock && r.pos > ev.pos && r.pos < ev.end {
				ev.end = r.pos
				break
			}
		}
	}
	return f
}

// walkOwn walks a function body without descending into nested function
// literals (self is the literal being walked, when walking a literal).
func walkOwn(body *ast.BlockStmt, self *ast.FuncLit, fn func(n ast.Node, inDefer bool)) {
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			if lit, ok := m.(*ast.FuncLit); ok && lit != self {
				return false
			}
			if d, ok := m.(*ast.DeferStmt); ok {
				fn(d.Call, true)
				for _, a := range d.Call.Args {
					walk(a, false)
				}
				return false
			}
			fn(m, inDefer)
			return true
		})
	}
	walk(body, false)
}

// exprText renders a selector chain as written: "c.mu", "r.mu".
func exprText(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprText(t.X) + "." + t.Sel.Name
	case *ast.StarExpr:
		return exprText(t.X)
	}
	return "<expr>"
}
