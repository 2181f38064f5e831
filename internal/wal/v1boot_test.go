package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"docs/internal/core"
	"docs/internal/kb"
	"docs/internal/store"
)

// readDir maps every file in dir to its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestFormatV1CampaignLogBoots: testdata/v1_campaign, a multi-segment
// campaign log as a3e04fd's format v1 writer left it, no longer boots. A
// campaign recovering from it is refused with an error naming format v1 and
// a3e04fd, and so is a second try: the first refusal appended no format v2
// segment behind the v1 ones and changed no byte of them, so nothing turns
// the log into one a later boot would take.
func TestFormatV1CampaignLogBoots(t *testing.T) {
	fixture := readDir(t, filepath.Join("testdata", "v1_campaign"))
	if len(fixture) < 3 {
		t.Fatalf("the fixture holds %d segments; want several", len(fixture))
	}
	dir := t.TempDir()
	for name, data := range fixture {
		if !bytes.HasPrefix(data[8:], []byte{'D', 'W', 'A', 'L', 1}) {
			t.Fatalf("%s is not a format v1 segment", name)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for try := 1; try <= 2; try++ {
		st, err := store.Open("", kb.MustDefault().Domains().Size())
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.New(core.Config{Store: st, ProfileScope: "v1", GoldenCount: 3, HITSize: 4, AnswersPerTask: 3, RerunEvery: 25})
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Recover(dir)
		s.Close()
		if err == nil || !strings.Contains(err.Error(), "format v1") || !strings.Contains(err.Error(), "a3e04fd") {
			t.Fatalf("boot %d: err = %v, want a refusal naming format v1 and a3e04fd", try, err)
		}
		after := readDir(t, dir)
		if len(after) != len(fixture) {
			t.Fatalf("boot %d: the log holds %d files, want the fixture's %d", try, len(after), len(fixture))
		}
		for name, data := range fixture {
			if !bytes.Equal(after[name], data) {
				t.Fatalf("boot %d: the refusal changed the v1 segment %s", try, name)
			}
		}
	}
}
