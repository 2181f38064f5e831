package docs_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// mdLink matches the target of an inline markdown link or image:
	// [text](target) / ![alt](target).
	mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	// codeSpan matches an inline code span, and testName and repoPath the
	// references inside one that TestDocReferencesResolve checks.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	repoPath = regexp.MustCompile(`(?:\./)?internal/[\w./-]*`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// flagSpan is a code span that is one command-line flag, alone or with
	// a value or one argument; flagDecl a flag a command declares.
	flagSpan = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(?:=\S+| \S+)?$`)
	flagDecl = regexp.MustCompile(`\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(?:Var)?\((?:&[\w.]+, )?"([a-z][a-z0-9-]*)"`)
	// metricSpan is a code span of the form layer.metric; metricDecl a
	// metric docs-perf adds to its report.
	metricSpan = regexp.MustCompile(`^([a-z]+)\.([a-z][a-z0-9_]*)$`)
	metricDecl = regexp.MustCompile(`rep\.add\(\w+, "([a-z][a-z0-9_.]*)"`)
)

// goTestFlags are the go test flags the docs cite: every other flag a doc
// names must be one a command under cmd/ declares.
var goTestFlags = []string{"benchtime", "race"}

// fileSuffixes end a file name, not a metric: `store.json` is no metric
// of the store layer.
var fileSuffixes = []string{"go", "golden", "json", "md", "sh", "wal"}

// wordBudget holds each design document to a number of words, counted as
// scripts/sizes.sh counts them. A change that must raise one says why in
// CHANGES.md.
var wordBudget = map[string]int{
	"README.md":                 700,
	"cmd/docs-server/README.md": 1100,
	"docs/architecture.md":      4400,
	"docs/assignment.md":        1400,
	"docs/experiments.md":       1100,
	"docs/multi-campaign.md":    1600,
	"docs/persistence.md":       3800,
	"docs/protocol.md":          900,
	"docs/static-analysis.md":   800,
}

// TestMarkdownLinks fails on dead relative links in the user-facing
// markdown: README.md, everything under docs/, and the per-command
// READMEs. External (http/https/mailto) targets and pure in-page anchors
// are skipped; a relative target must exist as a file or directory,
// resolved against the linking document's own directory. CI runs this as
// the docs gate, so a rename or move that orphans a link fails the build.
// No heading may repeat within a file either: a section pasted in twice
// also makes every #anchor to it ambiguous.
func TestMarkdownLinks(t *testing.T) {
	var files []string
	files = append(files, "README.md")
	for _, glob := range []string{"docs/*.md", "cmd/*/*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 2 {
		t.Fatalf("link check found only %d markdown files — glob set broken?", len(files))
	}
	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		headings, fenced := map[string]int{}, false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			if h := strings.TrimLeft(line, "#"); !fenced && h != line && strings.HasPrefix(h, " ") {
				if first, dup := headings[h]; dup {
					t.Errorf("%s:%d: heading %q repeats line %d", f, i+1, strings.TrimSpace(h), first)
				}
				headings[h] = i + 1
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// In-repo target: drop any fragment, resolve against the
			// document's directory.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dead link %q (resolved %s): %v", f, m[1], resolved, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("link check matched no relative links — regexp broken?")
	}
	t.Logf("checked %d relative links across %d files", checked, len(files))
}

// TestDocReferencesResolve fails on a stale name in the design documents:
// docs/*.md, the two READMEs (the repository's and docs-server's) and the
// verify skill. Every test, fuzz target or benchmark named in a code span
// must be a func in some _test.go by its exact name — TestX* names every
// func with the prefix TestX, at least one — and every internal/... path in
// one must exist. A span that is a lone flag must be declared by a command
// under cmd/ or be one of goTestFlags, and a span layer.metric whose layer
// is one of docs-perf's must be a metric docs-perf reports: a name in
// BENCHMARK.json or in one of its rep.add calls. A test, flag or metric
// renamed or deleted, or a file moved, without the prose that cites it
// fails here. Each design document stays within its wordBudget.
func TestDocReferencesResolve(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(name string) bool {
		prefix, wild := strings.CutSuffix(name, "*")
		for _, f := range funcs {
			if f == name || wild && strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
	flags := map[string]bool{}
	for _, f := range goTestFlags {
		flags[f] = true
	}
	err = filepath.WalkDir("cmd", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics, layers := map[string]bool{}, map[string]bool{}
	var bench struct{ EndToEnd, PerLayer []struct{ Name string } }
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metrics[m.Name] = true
	}
	perf, err := filepath.Glob("cmd/docs-perf/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range perf {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metricDecl.FindAllStringSubmatch(string(src), -1) {
			metrics[m[1]] = true
		}
	}
	for m := range metrics {
		if layer, _, ok := strings.Cut(m, "."); ok {
			layers[layer] = true
		}
	}
	if !flags["wal-dir"] || !metrics["wal.records_per_answer"] {
		t.Fatalf("found %d flags and %d metrics, none of them -wal-dir or wal.records_per_answer: regexp broken?", len(flags), len(metrics))
	}

	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	skill := filepath.Join(".claude", "skills", "verify", "SKILL.md")
	tests, paths, budgeted := 0, 0, 0
	for _, f := range append(files, "README.md", filepath.Join("cmd", "docs-server", "README.md"), skill) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if f != skill {
			budget, ok := wordBudget[filepath.ToSlash(f)]
			if words := countWords(data); !ok {
				t.Errorf("%s: %d words and no word budget", f, words)
			} else if budgeted++; words > budget {
				t.Errorf("%s: %d words, over its budget of %d", f, words, budget)
			}
		}
		// A code span may wrap a line but, as in CommonMark, never crosses a
		// blank line or a fence, so spans are matched a paragraph at a time.
		lines := strings.Split(string(data), "\n")
		fenced, start := false, 0
		for i := 0; i <= len(lines); i++ {
			if i < len(lines) && !fenced && !strings.HasPrefix(lines[i], "```") && strings.TrimSpace(lines[i]) != "" {
				continue
			}
			para := strings.Join(lines[start:i], "\n")
			for _, m := range codeSpan.FindAllStringSubmatchIndex(para, -1) {
				span, at := para[m[2]:m[3]], start+1+strings.Count(para[:m[0]], "\n")
				for _, name := range testName.FindAllString(span, -1) {
					if tests++; !names(name) {
						t.Errorf("%s:%d: %s names no test function", f, at, name)
					}
				}
				for _, p := range repoPath.FindAllString(span, -1) {
					paths++
					if _, err := os.Stat(strings.TrimRight(strings.TrimPrefix(p, "./"), "./")); err != nil {
						t.Errorf("%s:%d: %s does not exist", f, at, p)
					}
				}
				span = strings.ReplaceAll(span, "\n", " ")
				if m := flagSpan.FindStringSubmatch(span); m != nil && !flags[m[1]] {
					t.Errorf("%s:%d: -%s is no flag a command declares", f, at, m[1])
				}
				if m := metricSpan.FindStringSubmatch(span); m != nil && layers[m[1]] && !slices.Contains(fileSuffixes, m[2]) && !metrics[span] {
					t.Errorf("%s:%d: %s is no metric docs-perf reports", f, at, span)
				}
			}
			if i < len(lines) && strings.HasPrefix(lines[i], "```") {
				fenced = !fenced
			}
			start = i + 1
		}
	}
	if budgeted != len(wordBudget) {
		t.Errorf("found %d of the %d documents with a word budget", budgeted, len(wordBudget))
	}
	if tests == 0 || paths == 0 {
		t.Fatalf("matched %d test names and %d paths: regexp broken?", tests, paths)
	}
}

// countWords counts words as wc -w does in the C locale: runs of bytes
// between ASCII white space that hold a printable ASCII byte, so a dash or
// a box-drawing run standing alone is no word.
func countWords(b []byte) int {
	n := 0
	for _, w := range bytes.FieldsFunc(b, func(r rune) bool { return strings.ContainsRune(" \t\n\v\f\r", r) }) {
		if bytes.IndexFunc(w, func(r rune) bool { return r > ' ' && r < 0x7f }) >= 0 {
			n++
		}
	}
	return n
}
