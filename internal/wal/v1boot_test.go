package wal_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"docs/internal/core"
	"docs/internal/kb"
	"docs/internal/model"
	"docs/internal/store"
	"docs/internal/truth"
	"docs/internal/wal"
)

// v1Campaign is testdata/v1_campaign: a campaign log as format v1 wrote it
// — the publication, seeds of workers the store already knew, single and
// batched answers — in segments of 1 KiB.
var v1Campaign = filepath.Join("testdata", "v1_campaign")

// campaignConfig is the campaign the fixture holds and every boot of it
// runs, over a fresh memory-only store of its own.
func campaignConfig(t *testing.T) core.Config {
	t.Helper()
	st, err := store.Open("", kb.MustDefault().Domains().Size())
	if err != nil {
		t.Fatal(err)
	}
	return core.Config{Store: st, ProfileScope: "v1", GoldenCount: 3, HITSize: 4, AnswersPerTask: 3, RerunEvery: 25}
}

// writeV1Campaign runs the fixture's campaign over a format v2 log and
// rewrites its records into dir in format v1.
func writeV1Campaign(t *testing.T, dir string) {
	t.Helper()
	cfg := campaignConfig(t)
	m := kb.MustDefault().Domains().Size()
	for i, w := range []string{"w1", "w4"} {
		st := truth.NewStats(m)
		st.Q[i], st.U[i] = 0.9, 3
		if err := cfg.Store.Put(w, st); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]*model.Task, 80)
	for i := range tasks {
		dom := make(model.DomainVector, m)
		dom[i%3] = 1
		tasks[i] = &model.Task{ID: i, Text: fmt.Sprintf("task %d", i), Choices: []string{"a", "b"},
			Domain: dom, Truth: i % 2, TrueDomain: model.NoTruth}
	}
	live := t.TempDir()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(live); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(tasks); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 70; i++ {
		w := fmt.Sprintf("w%d", i%7)
		got, err := s.Request(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			items := make([]core.BatchItem, len(got))
			for j, tk := range got {
				items[j] = core.BatchItem{Worker: w, Task: tk.ID, Choice: (tk.ID + i) % 2}
			}
			if _, err := s.SubmitBatch(items); err != nil {
				t.Fatal(err)
			}
			continue
		}
		for _, tk := range got {
			if err := s.Submit(w, tk.ID, (tk.ID+i)%2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteV1Log(dir, records(t, live), 1<<10); err != nil {
		t.Fatal(err)
	}
}

// records replays a log that must be intact.
func records(t *testing.T, dir string) []wal.Record {
	t.Helper()
	var recs []wal.Record
	st, err := wal.Replay(dir, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil || st.TornTail {
		t.Fatalf("replay %s: %v (torn %v)", dir, err, st.TornTail)
	}
	return recs
}

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

// boot recovers a campaign from dir and returns it, running.
func boot(t *testing.T, dir string) *core.System {
	t.Helper()
	s, err := core.New(campaignConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(dir); err != nil {
		t.Fatalf("boot %s: %v", dir, err)
	}
	return s
}

// TestFormatV1CampaignLogBoots: a multi-segment format v1 campaign log,
// checked in as the v1 encoder wrote it, boots to the Fingerprint of the
// format v2 log of the same records. The next answer starts a new segment
// in format v2 — no segment mixes formats — and leaves every v1 byte as it
// was; the mixed log boots to the state the live campaign then had.
// (go test ./internal/wal -run V1CampaignLogBoots -update rewrites the
// fixture.)
func TestFormatV1CampaignLogBoots(t *testing.T) {
	if *wal.UpdateGolden {
		if err := os.RemoveAll(v1Campaign); err != nil {
			t.Fatal(err)
		}
		writeV1Campaign(t, v1Campaign)
	}
	fixture := readDir(t, v1Campaign)
	if len(fixture) < 3 {
		t.Fatalf("the fixture holds %d segments; want several", len(fixture))
	}
	v1 := t.TempDir()
	for name, data := range fixture {
		if !bytes.HasPrefix(data[8:], []byte{'D', 'W', 'A', 'L', 1}) {
			t.Fatalf("%s is not a format v1 segment", name)
		}
		if err := os.WriteFile(filepath.Join(v1, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs := records(t, v1)
	v2 := t.TempDir()
	l, err := wal.Open(v2, wal.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := records(t, v2); !reflect.DeepEqual(got, recs) {
		t.Fatal("the v2 log does not replay the v1 log's records")
	}
	kinds := map[wal.Kind]int{}
	for _, rec := range recs {
		kinds[rec.Kind]++
	}
	if kinds[wal.KindPublish] != 1 || kinds[wal.KindAnswer] == 0 || kinds[wal.KindBatch] == 0 || kinds[wal.KindSeed] == 0 {
		t.Fatalf("the fixture's records by kind: %v; want a publication, answers, batches and seeds", kinds)
	}

	fromV2 := boot(t, v2)
	want := fromV2.Fingerprint()
	if err := fromV2.Close(); err != nil {
		t.Fatal(err)
	}
	s := boot(t, v1)
	if got := s.Fingerprint(); got != want {
		t.Fatal("the v1 log boots to another state than the v2 log of its records")
	}
	got, err := s.Request("late", 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("request after the boot: %v, %v", got, err)
	}
	if err := s.Submit("late", got[0].ID, 0); err != nil {
		t.Fatal(err)
	}
	live := s.Fingerprint()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	after := readDir(t, v1)
	for name, data := range fixture {
		if !bytes.Equal(after[name], data) {
			t.Errorf("appending changed the v1 segment %s", name)
		}
	}
	next := fmt.Sprintf("%016x.wal", len(recs)+1)
	if len(after) != len(fixture)+1 || after[next] == nil {
		t.Fatalf("after one answer the log holds %d files, want the fixture's %d and %s", len(after), len(fixture), next)
	}
	if !bytes.HasPrefix(after[next][8:], []byte{'D', 'W', 'A', 'L', 2}) {
		t.Fatalf("the segment after the v1 log opens %x, want a format v2 header", after[next])
	}
	if n := len(records(t, v1)); n != len(recs)+1 {
		t.Fatalf("the mixed log replays %d records, want %d", n, len(recs)+1)
	}
	again := boot(t, v1)
	defer again.Close()
	if again.Fingerprint() != live {
		t.Fatal("the mixed log boots to another state than the live campaign's")
	}
}
