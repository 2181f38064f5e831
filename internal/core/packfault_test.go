package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"docs/internal/core"
	"docs/internal/dataset"
	"docs/internal/model"
	"docs/internal/registry"
	"docs/internal/wal"
)

// TestPublishPackFailureFailsStop: the install runs beside the packer, so a
// pack that fails after it has left a campaign in memory that its log does
// not hold. Publish returns ErrDurability; under a registry the core is
// dropped and the next call wakes the campaign unpublished, with nothing in
// its log; no goroutine is left behind; and a retry publishes and logs the
// serial path's record.
func TestPublishPackFailureFailsStop(t *testing.T) {
	const name = "packed"
	root := t.TempDir()
	reg, err := registry.Open(registry.Config{
		WALDir:   root,
		Campaign: core.Config{GoldenCount: 5, LeaseTTL: time.Minute, RerunEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := reg.Create(name); err != nil {
		t.Fatal(err)
	}
	var src []*model.Task
	for _, ds := range dataset.All(1) {
		src = append(src, ds.Tasks...)
	}
	tasks := make([]*model.Task, 643) // ten chunks and part of one
	for i := range tasks {
		tk := *src[i%len(src)]
		tk.ID, tk.Domain = i, nil
		tasks[i] = &tk
	}

	injected := errors.New("injected pack failure")
	var want []byte
	before := runtime.NumGoroutine()
	err = reg.Do(name, func(sys *core.System) error {
		want = core.SerialRecord(t, sys, tasks)
		core.ArmPackFault(sys, func() error { return injected })
		return sys.Publish(tasks)
	})
	if !errors.Is(err, core.ErrDurability) || !strings.Contains(err.Error(), injected.Error()) {
		t.Fatalf("a publish whose pack fails returned %v, want ErrDurability naming the pack's failure", err)
	}
	if after := core.SettledGoroutines(before); after > before {
		t.Errorf("%d goroutines before the publish, %d after it returned", before, after)
	}
	if reg.Resident(name) {
		t.Fatal("the campaign still serves the core whose publication its log does not hold")
	}
	err = reg.Do(name, func(sys *core.System) error {
		if sys.Published() || sys.Stats().WALLastSeq != 0 {
			return fmt.Errorf("the woken campaign is published=%v at WAL seq %d, want unpublished at 0", sys.Published(), sys.Stats().WALLastSeq)
		}
		return sys.Publish(tasks)
	})
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []wal.Record
	if _, err := wal.Replay(filepath.Join(root, "campaigns", name), func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != wal.KindPublish || !bytes.Equal(recs[0].Blob, want) {
		t.Fatalf("the log holds %d records after the retry, want the serial path's publish record alone", len(recs))
	}
	if after := core.SettledGoroutines(before); after > before {
		t.Errorf("%d goroutines before the publish, %d after the registry closed", before, after)
	}
}
