package docs_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
)

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
// one must exist. A test renamed or deleted, or a file moved, without the
// prose that cites it fails here.
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
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	tests, paths := 0, 0
	for _, f := range append(files, "README.md", filepath.Join("cmd", "docs-server", "README.md"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md")) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
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
			}
			if i < len(lines) && strings.HasPrefix(lines[i], "```") {
				fenced = !fenced
			}
			start = i + 1
		}
	}
	if tests == 0 || paths == 0 {
		t.Fatalf("matched %d test names and %d paths: regexp broken?", tests, paths)
	}
}
