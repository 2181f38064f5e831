package docs_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches the target of an inline markdown link or image:
// [text](target) / ![alt](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

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
