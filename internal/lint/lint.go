// Package lint is the project's static-analysis pass: a small, stdlib-only
// analyzer framework (go/parser + go/ast + go/types — no external modules)
// plus four project-specific analyzers that prove the repo's determinism
// and durability contracts at the source level, before any crash-injection
// suite runs.
//
// The analyzers are driven by //docs: source directives:
//
//	//docs:deterministic             marks a function as a determinism root
//	                                 (fingerprints, encoders, replay entry
//	                                 points) — everything reachable from it
//	                                 must be order- and clock-independent
//	//docs:exhaustive                on a type declaration: every switch over
//	                                 the type must enumerate every constant
//	//docs:allow <analyzer> <reason> suppresses findings of <analyzer> on
//	                                 this line or the next one; the reason
//	                                 is mandatory
//
// See docs/static-analysis.md for what each analyzer proves and how it
// relates to the dynamic suite that used to be the only guard.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit: a position, the analyzer that fired, and a
// message naming the violated contract.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the file:line: analyzer: message form the
// CI step greps for.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one static check over the whole loaded program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Finding
}

// Package is one type-checked package of the program under analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the loaded-and-type-checked module: every package, a shared
// FileSet, the directive table, and a body index resolving a *types.Func
// to the declaration that carries its AST.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	dirs  *directives
	funcs *funcIndex
}

// Analyzers returns the full analyzer suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		determinismAnalyzer,
		clockAnalyzer,
		walswitchAnalyzer,
		floatbitsAnalyzer,
	}
}

// Run executes the given analyzers over the program, applies //docs:allow
// suppressions, appends a finding for every malformed (reason-less) allow
// directive, and returns the surviving findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Run(prog) {
			if prog.dirs.allowed(a.Name, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	// A suppression without a reason is itself a finding: the allowlist
	// doubles as documentation, and an unexplained entry documents nothing.
	out = append(out, prog.dirs.badAllows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// finding builds a Finding at a node's position.
func (p *Program) finding(analyzer string, pos token.Pos, format string, args ...any) Finding {
	return Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// trimPath strips a leading root prefix so findings print repo-relative
// paths.
func trimPath(fs []Finding, root string) {
	if root == "" {
		return
	}
	prefix := root
	if !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	for i := range fs {
		fs[i].Pos.Filename = strings.TrimPrefix(fs[i].Pos.Filename, prefix)
	}
}

// TrimPaths rewrites all finding positions relative to root (for printing).
func TrimPaths(fs []Finding, root string) { trimPath(fs, root) }
