package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// directives is the parsed //docs: directive table for a program.
//
// Grammar (one directive per comment line, no space after "//"):
//
//	//docs:allow <analyzer> <reason...>   suppress <analyzer> findings on
//	                                      this line or the next; reason
//	                                      required
//	//docs:deterministic                  function is a determinism root
//	//docs:exhaustive                     type's switches must be exhaustive
//
// A deterministic directive binds to the function declaration whose `func`
// keyword is on the directive's line or the line immediately after it —
// the end-of-doc and line-above positions — or anywhere in its doc
// comment; one anywhere else, such as above a function literal, is
// reported as unattached. Any other verb is reported as unknown.
type directives struct {
	// allows: file -> line -> set of analyzer names suppressed there.
	allows map[string]map[int]map[string]bool
	// badAllows are //docs:allow lines with no reason (reported as
	// findings: an unexplained suppression is itself a violation).
	badAllows []Finding
	// deterministic: the functions marked as determinism roots.
	deterministic map[funcKey]bool
	// exhaustive: "pkgpath.TypeName" set.
	exhaustive map[string]bool
}

// funcKey identifies a function declaration by the position of
// its `func` keyword.
type funcKey token.Pos

type rawDirective struct {
	file string
	line int
	pos  token.Pos
	verb string
	args string
}

func scanDirectives(prog *Program) *directives {
	d := &directives{
		allows:        map[string]map[int]map[string]bool{},
		deterministic: map[funcKey]bool{},
		exhaustive:    map[string]bool{},
	}

	var raws []rawDirective
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//docs:")
					if !ok {
						continue
					}
					verb, args, _ := strings.Cut(text, " ")
					pos := prog.Fset.Position(c.Pos())
					raws = append(raws, rawDirective{
						file: pos.Filename,
						line: pos.Line,
						pos:  c.Pos(),
						verb: verb,
						args: strings.TrimSpace(args),
					})
				}
			}
		}

		// Type-attached directives: scan type declarations' docs.
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc, ts.Comment} {
						if doc == nil {
							continue
						}
						for _, c := range doc.List {
							if strings.TrimSpace(c.Text) == "//docs:exhaustive" {
								d.exhaustive[pkg.Path+"."+ts.Name.Name] = true
							}
						}
					}
				}
			}
		}
	}

	// Function binding: map each line to the function whose `func` keyword
	// starts there.
	funcAt := map[string]map[int]funcKey{}
	note := func(pos token.Pos) {
		p := prog.Fset.Position(pos)
		if funcAt[p.Filename] == nil {
			funcAt[p.Filename] = map[int]funcKey{}
		}
		// First function on a line wins (one function per line in practice).
		if _, ok := funcAt[p.Filename][p.Line]; !ok {
			funcAt[p.Filename][p.Line] = funcKey(pos)
		}
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					note(fd.Pos())
				}
			}
		}
	}
	// FuncDecl doc comments may carry directives on any doc line; bind them
	// by scanning decl docs directly, and remember which comment positions
	// were consumed so the line-proximity pass below does not double-bind
	// or mis-report them.
	consumed := map[token.Pos]bool{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					if text, _, _ := strings.Cut(c.Text, " "); text == "//docs:deterministic" {
						d.deterministic[funcKey(fd.Pos())] = true
						consumed[c.Pos()] = true
					}
				}
			}
		}
	}

	for _, r := range raws {
		if consumed[r.pos] {
			continue
		}
		switch r.verb {
		case "allow":
			analyzer, reason, _ := strings.Cut(r.args, " ")
			if analyzer == "" || strings.TrimSpace(reason) == "" {
				d.badAllows = append(d.badAllows, Finding{
					Pos:      prog.Fset.Position(r.pos),
					Analyzer: "allow",
					Message:  "//docs:allow needs an analyzer name and a non-empty reason",
				})
				continue
			}
			for _, line := range []int{r.line, r.line + 1} {
				if d.allows[r.file] == nil {
					d.allows[r.file] = map[int]map[string]bool{}
				}
				if d.allows[r.file][line] == nil {
					d.allows[r.file][line] = map[string]bool{}
				}
				d.allows[r.file][line][analyzer] = true
			}
		case "deterministic":
			// Bind to the function starting on this or the next line (the
			// doc-comment path above already handled FuncDecl docs).
			key, ok := funcNear(funcAt, r.file, r.line)
			if !ok {
				d.badAllows = append(d.badAllows, Finding{
					Pos:      prog.Fset.Position(r.pos),
					Analyzer: r.verb,
					Message:  "//docs:" + r.verb + " is not attached to a function",
				})
				continue
			}
			d.deterministic[key] = true
		case "exhaustive":
			// Handled via type-doc scan above.
		default:
			d.badAllows = append(d.badAllows, Finding{
				Pos:      prog.Fset.Position(r.pos),
				Analyzer: "directive",
				Message:  "unknown directive //docs:" + r.verb,
			})
		}
	}
	return d
}

// funcNear finds a function starting on line or line+1 in file. A FuncDecl
// with a doc comment starts at the doc's first line per go/ast, so a
// directive inside the doc group still binds via the decl-doc scan; this
// covers bare declarations.
func funcNear(funcAt map[string]map[int]funcKey, file string, line int) (funcKey, bool) {
	lines := funcAt[file]
	if lines == nil {
		return 0, false
	}
	for _, l := range []int{line, line + 1} {
		if k, ok := lines[l]; ok {
			return k, true
		}
	}
	return 0, false
}

// allowed reports whether a finding of analyzer at pos is suppressed by an
// allow directive on its line or the line above.
func (d *directives) allowed(analyzer string, pos token.Position) bool {
	lines := d.allows[pos.Filename]
	if lines == nil {
		return false
	}
	set := lines[pos.Line]
	return set != nil && set[analyzer]
}
