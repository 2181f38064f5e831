// Command docs-lint is the project's static-analysis gate: it loads every
// package in the module (stdlib-only tooling — go/parser, go/ast,
// go/types; no external dependencies) and runs the four project-specific
// analyzers that prove the determinism and durability contracts at the
// source level:
//
//	determinism  nothing order- or clock-dependent reachable from
//	             Fingerprint, the snapshot/WAL encoders, or replay
//	clock        time.Now/Since/Until only at //docs:allow-listed sites
//	walswitch    every wal.Kind constant handled in every Kind switch
//	floatbits    no raw floats formatted in digest paths
//
// Findings print as "file:line: analyzer: message" and any finding makes
// the exit status non-zero, so CI (and scripts/check_bench.sh's
// preflight) fail the moment a diff can violate a contract — before any
// crash-injection suite runs. See docs/static-analysis.md.
//
// Usage:
//
//	docs-lint ./...            lint the whole module (from anywhere inside it)
//	docs-lint ./internal/wal   lint the module, report findings under the path
//	docs-lint -list            print the analyzer suite and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"docs/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}

	// The whole module is always loaded — the determinism and floatbits
	// analyzers need the full call graph — and the patterns only filter
	// which files findings are REPORTED for.
	prog, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	findings := lint.Run(prog, lint.Analyzers())
	lint.TrimPaths(findings, root)

	keep := findings[:0]
	for _, f := range findings {
		if matchesPatterns(f.Pos.Filename, wd, root, flag.Args()) {
			keep = append(keep, f)
		}
	}
	findings = keep

	for _, f := range findings {
		fmt.Println(f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "docs-lint: %d finding(s)\n", n)
		os.Exit(1)
	}
}

// matchesPatterns reports whether a repo-relative filename falls under any
// of the requested package patterns (resolved against the invoking
// directory). No patterns, ".", or "./..." mean everything.
func matchesPatterns(rel, wd, root string, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == "." && wd == root {
			return true
		}
		dir := strings.TrimSuffix(p, "/...")
		abs := dir
		if !filepath.IsAbs(dir) {
			abs = filepath.Join(wd, dir)
		}
		prefix, err := filepath.Rel(root, abs)
		if err != nil {
			continue
		}
		if prefix == "." {
			return true
		}
		if rel == prefix || strings.HasPrefix(rel, prefix+string(filepath.Separator)) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docs-lint:", err)
	os.Exit(2)
}
