package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE matches a golden expectation comment in a fixture file:
//
//	expr // want <analyzer> "message substring"
//
// The expectation binds to the line it sits on; analyzers that anchor
// findings on a range statement put the comment on the `for` line. The
// block form `/* want ... */` exists for lines where a trailing line
// comment would change what is being tested (a //docs: directive swallows
// the rest of its line).
var wantRE = regexp.MustCompile(`(?://|/\*) want (\w+) "([^"]*)"`)

type expectation struct {
	file     string // base name of the fixture file
	line     int
	analyzer string
	substr   string
	matched  bool
}

// loadExpectations scans every .go file in dir for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				out = append(out, &expectation{file: e.Name(), line: line, analyzer: m[1], substr: m[2]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return out
}

// testFixture type-checks one testdata/src package, runs the given
// analyzers, and holds the findings to the fixture's want comments — every
// finding must be expected, every expectation must fire. Lines without a
// want comment double as the negative cases: a finding there fails the
// test.
func testFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	prog, err := LoadPackages(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	findings := Run(prog, analyzers)
	want := loadExpectations(t, dir)
	if len(want) == 0 {
		t.Fatalf("fixture %s declares no want comments", name)
	}
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		matched := false
		for _, w := range want {
			if !w.matched && w.file == base && w.line == f.Pos.Line &&
				w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range want {
		if !w.matched {
			t.Errorf("%s:%d: want %s finding matching %q, got none", w.file, w.line, w.analyzer, w.substr)
		}
	}
}

func TestClockFixture(t *testing.T)       { testFixture(t, "clock", clockAnalyzer) }
func TestDeterminismFixture(t *testing.T) { testFixture(t, "determinism", determinismAnalyzer) }
func TestWalswitchFixture(t *testing.T)   { testFixture(t, "walswitch", walswitchAnalyzer) }
func TestFloatbitsFixture(t *testing.T)   { testFixture(t, "floatbits", floatbitsAnalyzer) }

// TestAllowFixture exercises the suppression grammar: a reasoned allow
// silences its line, a reason-less allow is itself a finding and silences
// nothing, and an unknown directive is reported.
func TestAllowFixture(t *testing.T) { testFixture(t, "allow", clockAnalyzer) }

// TestRepoIsClean is the meta-test: the full analyzer suite over the real
// module must report nothing. Every deliberate exception in the tree
// carries a //docs:allow with a reason, so a new finding here is a real
// contract violation (or a new exception that needs explaining).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; skipped with -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(prog, Analyzers())
	TrimPaths(findings, root)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
