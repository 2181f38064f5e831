package registry

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"docs/internal/core"
	"docs/internal/crashtest"
)

// TestLegacyStoreRefused: the worker store is a log directory, and nothing
// reads the JSON checkpoint and delta file older versions kept. A root still
// holding either, or a store path that is a regular file, is refused at Open
// with an error naming the file — never booted past with the workers it
// held silently missing.
func TestLegacyStoreRefused(t *testing.T) {
	for _, name := range []string{"store.json", "store.json.delta"} {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, name), []byte(`{"m":26,"workers":{}}`), 0o644); err != nil {
			t.Fatal(err)
		}
		if reg, err := Open(crashConfig(root)); err == nil || !strings.Contains(err.Error(), name) {
			if err == nil {
				reg.Close()
			}
			t.Errorf("root holding %s: Open error %v, want one naming it", name, err)
		}
	}
	file := filepath.Join(t.TempDir(), "workers.json")
	if err := os.WriteFile(file, []byte(`{"m":26,"workers":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := crashConfig(t.TempDir())
	cfg.StorePath = file
	if reg, err := Open(cfg); err == nil || !strings.Contains(err.Error(), file) {
		if err == nil {
			reg.Close()
		}
		t.Errorf("a regular file as the store path: Open error %v, want one naming it", err)
	}
}

// TestSegmentsAtTheRootRefused: a directory holding WAL segments at its top
// level is one campaign's log — here a campaign namespace passed as a root,
// the same layout as the directory a System of its own logged to before it
// was a registry's campaign. Open refuses it with an error naming a segment
// and leaves every byte as it was, instead of booting an empty registry
// beside the data.
func TestSegmentsAtTheRootRefused(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := create(reg, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(synthTasks(sys.Domains().Size(), 12, 0)); err != nil {
		t.Fatal(err)
	}
	profile(t, sys, "w")
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, campaignsDir, "alpha")
	want := readTree(t, dir)
	if reg, err := Open(crashConfig(dir)); err == nil || !strings.Contains(err.Error(), ".wal") {
		if err == nil {
			reg.Close()
		}
		t.Errorf("a campaign's log as the root: Open error %v, want one naming a segment", err)
	}
	if got := readTree(t, dir); !reflect.DeepEqual(got, want) {
		t.Error("the refused root changed")
	}
}

// TestStoreAndCampaignLogsNotInterchangeable: a store log and a campaign log
// are both wal directories, and each refuses the other at its first record
// — a store opened over a campaign's log, and a campaign directory holding a
// store's log, fail the Open instead of serving an empty or a garbled state.
func TestStoreAndCampaignLogsNotInterchangeable(t *testing.T) {
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := create(reg, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Publish(synthTasks(sys.Domains().Size(), 12, 0)); err != nil {
		t.Fatal(err)
	}
	profile(t, sys, "w")
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := crashConfig(t.TempDir())
	cfg.StorePath = filepath.Join(root, campaignsDir, "alpha")
	if reg, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "record 1") {
		if err == nil {
			reg.Close()
		}
		t.Errorf("a store over a campaign log: Open error %v, want a refusal at record 1", err)
	}

	mixed := t.TempDir()
	crashtest.CopyTree(t, filepath.Join(root, storeDir), filepath.Join(mixed, campaignsDir, "beta"))
	if reg, err := Open(crashConfig(mixed)); err == nil || !strings.Contains(err.Error(), "record 1 is a worker-store update") {
		if err == nil {
			reg.Close()
		}
		t.Errorf("a campaign directory holding a store log: Open error %v, want a refusal at record 1", err)
	}
}

// TestFormatV0LogRefused: nothing reads a log of a format no build writes.
// testdata/v0_wal holds a campaign log as builds before format v1 wrote it
// — a segment with no header, whose publish record is JSON — and
// internal/wal's testdata/v1_campaign one as a3e04fd's format v1 writer left
// it, in several segments. core.Recover, a registry wake and a store opened
// over either refuse it with an error naming its format and the last commit
// that reads it, and leave every byte of it as it was.
func TestFormatV0LogRefused(t *testing.T) {
	for _, row := range []struct{ fixture, format, commit string }{
		{filepath.Join("testdata", "v0_wal"), "format v0", "af9f454"},
		{filepath.Join("..", "wal", "testdata", "v1_campaign"), "format v1", "a3e04fd"},
	} {
		want := readTree(t, row.fixture)
		check := func(what, dir string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), row.format) || !strings.Contains(err.Error(), row.commit) {
				t.Errorf("%s, %s: error %v, want a refusal naming %s and %s", row.format, what, err, row.format, row.commit)
			}
			if got := readTree(t, dir); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s: the log directory changed", row.format, what)
			}
		}

		dir := filepath.Join(t.TempDir(), "wal")
		crashtest.CopyTree(t, row.fixture, dir)
		sys, err := core.New(core.Config{Store: memStore(t), ProfileScope: "legacy"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.Recover(dir)
		sys.Close()
		check("core.Recover", dir, err)

		root := t.TempDir()
		dir = filepath.Join(root, campaignsDir, "legacy")
		crashtest.CopyTree(t, row.fixture, dir)
		cfg := crashConfig(root)
		cfg.MaxLiveCampaigns = 1
		reg, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = reg.Do("legacy", func(*core.System) error { return nil })
		if cerr := reg.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		check("a registry wake", dir, err)

		cfg = crashConfig(t.TempDir())
		cfg.StorePath = filepath.Join(t.TempDir(), "store")
		crashtest.CopyTree(t, row.fixture, cfg.StorePath)
		if reg, err = Open(cfg); err == nil {
			reg.Close()
		}
		check("store.Open", cfg.StorePath, err)
	}
}

// readTree maps every file under dir to its bytes.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
