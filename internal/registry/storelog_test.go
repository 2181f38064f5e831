package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	copyTree(t, filepath.Join(root, storeDir), filepath.Join(mixed, campaignsDir, "beta"))
	if reg, err := Open(crashConfig(mixed)); err == nil || !strings.Contains(err.Error(), "record 1 is a worker-store update") {
		if err == nil {
			reg.Close()
		}
		t.Errorf("a campaign directory holding a store log: Open error %v, want a refusal at record 1", err)
	}
}
