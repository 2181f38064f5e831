package registry

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/kb"
	"docs/internal/mathx"
	"docs/internal/wal"
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
		refused(t, crashConfig(root), name, "a root holding "+name)
	}
	file := filepath.Join(t.TempDir(), "workers.json")
	if err := os.WriteFile(file, []byte(`{"m":26,"workers":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := crashConfig(t.TempDir())
	cfg.StorePath = file
	refused(t, cfg, file, "a regular file as the store path")
}

// profiledAlpha is the tree a registry leaves after campaign alpha, of 12
// tasks, profiled worker w.
func profiledAlpha(t *testing.T) string {
	return scenario(t, script{Traffic: func(g *registries, _ *mathx.Rand) {
		g.publish("alpha", 12, 0)
		g.gauntlet("alpha", "w")
	}}, plain).root
}

// refused holds Open under cfg, the case what names, to an error holding
// want.
func refused(t *testing.T, cfg Config, want, what string) {
	t.Helper()
	if reg, err := Open(cfg); err == nil || !strings.Contains(err.Error(), want) {
		if err == nil {
			reg.Close()
		}
		t.Errorf("%s: Open error %v, want one holding %q", what, err, want)
	}
}

// TestSegmentsAtTheRootRefused: a directory holding WAL segments at its top
// level is one campaign's log — here a campaign namespace passed as a root,
// the same layout as the directory a System of its own logged to before it
// was a registry's campaign. Open refuses it with an error naming a segment
// and leaves every byte as it was, instead of booting an empty registry
// beside the data.
func TestSegmentsAtTheRootRefused(t *testing.T) {
	root := profiledAlpha(t)
	dir := filepath.Join(root, campaignsDir, "alpha")
	want := readTree(t, dir)
	refused(t, crashConfig(dir), ".wal", "a campaign's log as the root")
	if got := readTree(t, dir); !reflect.DeepEqual(got, want) {
		t.Error("the refused root changed")
	}
}

// TestStoreAndCampaignLogsNotInterchangeable: a store log and a campaign log
// are both wal directories, and each refuses the other at its first record
// — a store opened over a campaign's log, and a campaign directory holding a
// store's log, fail the Open instead of serving an empty or a garbled state.
func TestStoreAndCampaignLogsNotInterchangeable(t *testing.T) {
	root := profiledAlpha(t)

	cfg := crashConfig(t.TempDir())
	cfg.StorePath = filepath.Join(root, campaignsDir, "alpha")
	refused(t, cfg, "record 1", "a store over a campaign log")

	mixed := t.TempDir()
	crashtest.CopyTree(t, filepath.Join(root, storeDir), filepath.Join(mixed, campaignsDir, "beta"))
	refused(t, crashConfig(mixed), "record 1 is a worker-store update", "a campaign directory holding a store log")
}

// TestFormatV0LogRefused: nothing reads a log of a format version no build
// of this one writes. A campaign log this build wrote in segments of 1 KiB
// is retagged as versions 0 (no header), 1 and 2 open a segment, in every
// segment, in the first one only, and with an empty segment after the
// last. core.Recover, a registry wake and a store opened over each refuse
// it with the one error naming the version and the last commit that reads
// it, and leave every byte of it as it was.
func TestFormatV0LogRefused(t *testing.T) {
	src := t.TempDir()
	sys, err := core.New(core.Config{Store: memStore(t), ProfileScope: "legacy", GoldenCount: -1, WALSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Recover(src); err != nil {
		t.Fatal(err)
	}
	tasks := synthTasks(kb.MustDefault().Domains().Size(), 60, 0)
	if err := sys.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := sys.Submit(fmt.Sprintf("w%d", i%7), i%len(tasks), i%2); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	current := readTree(t, src)
	if len(current) < 3 {
		t.Fatalf("the log holds %d segments, want several", len(current))
	}
	for v, commit := range map[uint64]string{0: "af9f454", 1: "a3e04fd", 2: "21c7a3e"} {
		want := fmt.Sprintf("format v%d; this build reads v3; %s is the last commit that reads v%d", v, commit, v)
		every, first := map[string]string{}, maps.Clone(current)
		for name, seg := range current {
			every[name] = retag(t, seg, v)
		}
		first["/0000000000000001.wal"] = every["/0000000000000001.wal"]
		empty := maps.Clone(every)
		empty[fmt.Sprintf("/%016x.wal", 10_000)] = ""
		for shape, files := range map[string]map[string]string{"every segment": every, "the first segment": first, "an empty segment after": empty} {
			image := t.TempDir()
			for name, data := range files {
				if err := os.WriteFile(image+name, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			check := func(what, dir string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("v%d in %s, %s: error %v, want %q", v, shape, what, err, want)
				}
				if got := readTree(t, dir); !reflect.DeepEqual(got, files) {
					t.Errorf("v%d in %s, %s: the log directory changed", v, shape, what)
				}
			}

			dir := filepath.Join(t.TempDir(), "wal")
			crashtest.CopyTree(t, image, dir)
			sys, err := core.New(core.Config{Store: memStore(t), ProfileScope: "legacy"})
			if err != nil {
				t.Fatal(err)
			}
			_, err = sys.Recover(dir)
			sys.Close()
			check("core.Recover", dir, err)

			root := t.TempDir()
			dir = filepath.Join(root, campaignsDir, "legacy")
			crashtest.CopyTree(t, image, dir)
			cfg := crashConfig(root)
			cfg.MaxLiveCampaigns = 1
			reg := openRegistry(t, cfg)
			err = reg.Do("legacy", func(*core.System) error { return nil })
			if cerr := reg.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			check("a registry wake", dir, err)

			cfg = crashConfig(t.TempDir())
			cfg.StorePath = filepath.Join(t.TempDir(), "store")
			crashtest.CopyTree(t, image, cfg.StorePath)
			if reg, err = Open(cfg); err == nil {
				reg.Close()
			}
			check("store.Open", cfg.StorePath, err)
		}
	}
}

// retag is seg, a segment this build wrote, as format version v opens one:
// its header frame ("DWAL" | version uvarint | firstSeq uvarint) says v or,
// for version 0, which had none, is a record frame (kind | sequence number,
// as its records opened). What follows stays this build's: a refusal reads
// no further.
func retag(t *testing.T, seg string, v uint64) string {
	t.Helper()
	n := binary.LittleEndian.Uint32([]byte(seg))
	header := seg[8 : 8+n]
	if !strings.HasPrefix(header, "DWAL\x03") {
		t.Fatalf("the segment opens with %q, not a format v3 header", header)
	}
	payload := append([]byte(header[:4]), byte(v))
	if v == 0 {
		payload = []byte{byte(wal.KindPublish)}
	}
	return string(wal.EncodeFrame(nil, append(payload, header[5:]...))) + seg[8+n:]
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
