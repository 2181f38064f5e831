package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"docs/internal/core"
	"docs/internal/crashtest"
	"docs/internal/model"
	"docs/internal/snapshot"
	"docs/internal/truth"
	"docs/internal/wal"
)

// The hibernate-path crash sweep. A hibernation is a sequence of durable
// steps — WAL fsync, final snapshot write (atomic tmp+rename), memory
// release — and a kill -9 can land between any two of them, or tear the
// snapshot file itself mid-write (simulated by truncation, since the
// atomic rename makes a *partially renamed* file impossible but a torn
// tmp promoted by a buggy filesystem or a corrupted sector is not). Every
// image must boot to the campaign's serial reference: the safe direction
// is "boots live with a longer replay", never state loss. Each image is
// booted both EAGERLY (uncapped registry, replay at Open) and LAZILY
// (capped registry, replay on first Get — the wake path), because the
// density configuration is exactly where crashed hibernations will be
// rebooted in production.

// hibernateCrashFixture drives one campaign through traffic → hibernate →
// wake → more traffic → hibernate, returning the campaign's durable
// record stream, the final live fingerprint, and a copy of the FIRST
// hibernate's snapshot (a stale-but-valid snapshot for the suffix-replay
// case).
type hibernateCrashFixture struct {
	root      string // registry root (closed, quiescent)
	dir       string // campaign WAL namespace
	recs      []wal.Record
	m         int
	fpLive    string // live fingerprint at final hibernate
	staleSnap []byte // snapshot file after the first hibernate
	staleSeq  int    // records covered by the stale snapshot
}

func buildHibernateCrashFixture(t *testing.T) *hibernateCrashFixture {
	t.Helper()
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := create(reg, "solo")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Domains().Size()
	if err := sys.Publish(synthTasks(m, 24, 0)); err != nil {
		t.Fatal(err)
	}
	// Phase one: a bounded slice of the workload (two workers profiled plus
	// a few regular answers), so the first hibernate's snapshot covers a
	// strict prefix of the eventual log.
	for w := 0; w < 2; w++ {
		profile(t, sys, fmt.Sprintf("w%d", w))
	}
	for w := 0; w < 2; w++ {
		worker := fmt.Sprintf("w%d", w)
		got, err := sys.Request(worker, crashKnobs.hit)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range got {
			c := tk.Truth
			if c == model.NoTruth {
				c = 0
			}
			if err := sys.Submit(worker, tk.ID, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := reg.Hibernate("solo"); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, campaignsDir, "solo")
	staleSnap, err := os.ReadFile(filepath.Join(dir, snapshot.FileName))
	if err != nil {
		t.Fatalf("first hibernate left no snapshot: %v", err)
	}
	staleSeq := len(crashtest.ReadStream(t, dir))

	// Wake and extend the campaign: run the rest of the workload to
	// saturation, final hibernate. The stale snapshot now trails the log.
	driveInterleaved(t, reg, []string{"solo"}, 5, 23)
	sys, err = get(reg, "solo")
	if err != nil {
		t.Fatal(err)
	}
	fpLive := sys.Fingerprint()
	if err := reg.Hibernate("solo"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	recs := crashtest.ReadStream(t, dir)
	if len(recs) <= staleSeq {
		t.Fatalf("second wave added no records (%d then %d)", staleSeq, len(recs))
	}
	return &hibernateCrashFixture{root: root, dir: dir, recs: recs, m: m,
		fpLive: fpLive, staleSnap: staleSnap, staleSeq: staleSeq}
}

// buildAnswerFreeFixture hibernates a campaign whose whole life holds no
// answer: the publication alone, or (seeded) the publication plus the
// KindSeed a store-known worker's first request logs. Such a hibernation
// writes nothing, so the fixture has no snapshot, stale or otherwise.
func buildAnswerFreeFixture(t *testing.T, seeded bool) *hibernateCrashFixture {
	t.Helper()
	root := t.TempDir()
	reg, err := Open(crashConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := create(reg, "solo")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Domains().Size()
	if err := sys.Publish(synthTasks(m, 24, 0)); err != nil {
		t.Fatal(err)
	}
	if seeded {
		st := truth.NewStats(m)
		st.Q[0], st.U[0] = 0.9, 3
		if err := reg.Store().Put("w0", st); err != nil {
			t.Fatal(err)
		}
		if got, err := sys.Request("w0", crashKnobs.hit); err != nil || len(got) == 0 {
			t.Fatalf("store-known worker got %d tasks, err %v", len(got), err)
		}
	}
	fpLive := sys.Fingerprint()
	if err := reg.Hibernate("solo"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, campaignsDir, "solo")
	if _, err := os.Stat(filepath.Join(dir, snapshot.FileName)); !os.IsNotExist(err) {
		t.Fatalf("answer-free hibernate left a snapshot file (stat: %v)", err)
	}
	recs := crashtest.ReadStream(t, dir)
	want := 1 // the publication
	if seeded {
		want = 2 // and w0's seed
	}
	if len(recs) != want {
		t.Fatalf("answer-free life logged %d records, want %d", len(recs), want)
	}
	return &hibernateCrashFixture{root: root, dir: dir, recs: recs, m: m, fpLive: fpLive}
}

// buildImage copies the fixture's durable tree into a fresh root and lets
// mutate damage the campaign's snapshot file (or remove it).
func (f *hibernateCrashFixture) buildImage(t *testing.T, mutate func(snapPath string)) string {
	t.Helper()
	crashRoot := t.TempDir()
	crashtest.CopyTree(t, f.root, crashRoot)
	mutate(filepath.Join(crashRoot, campaignsDir, "solo", snapshot.FileName))
	return crashRoot
}

// bootAndCheck opens a registry over the image in the given mode (eager =
// uncapped boot replay, lazy = capped cold boot + wake on Get) and
// asserts the campaign recovered bit-identically to the serial reference,
// with the expected recovery shape.
func (f *hibernateCrashFixture) bootAndCheck(t *testing.T, label, crashRoot string, lazy bool,
	wantSnapshotUsed bool, wantRejected bool, wantRecords int) {
	t.Helper()
	cfg := crashConfig(crashRoot)
	if lazy {
		cfg.MaxLiveCampaigns = 1
		label += "/lazy"
	} else {
		label += "/eager"
	}
	booted, err := Open(cfg)
	if err != nil {
		t.Fatalf("%s: boot over crash image: %v", label, err)
	}
	defer booted.Close()
	if lazy {
		if st := booted.Stats(); st.CampaignsLive != 0 || st.CampaignsHibernated != 1 {
			t.Fatalf("%s: cold boot counts = %d live / %d hibernated, want 0/1", label, st.CampaignsLive, st.CampaignsHibernated)
		}
	}
	sys, err := get(booted, "solo")
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	info := sys.Recovery()
	if info.SnapshotUsed != wantSnapshotUsed {
		t.Fatalf("%s: SnapshotUsed = %v, want %v (rejected: %q)", label, info.SnapshotUsed, wantSnapshotUsed, info.SnapshotRejected)
	}
	if wantRejected && info.SnapshotRejected == "" {
		t.Fatalf("%s: damaged snapshot was not loudly rejected", label)
	}
	if !wantRejected && info.SnapshotRejected != "" {
		t.Fatalf("%s: clean snapshot rejected: %q", label, info.SnapshotRejected)
	}
	if info.Records != wantRecords {
		t.Fatalf("%s: replayed %d records, want %d", label, info.Records, wantRecords)
	}
	if lazy {
		if total := booted.Stats().WakesTotal; total != 1 {
			t.Fatalf("%s: %d wakes, want 1", label, total)
		}
	}
	ref, refStore := referenceSystem(t, "solo", f.recs, filepath.Join(f.root, storeDir), f.m)
	defer refStore.Close()
	defer ref.Close()
	if got, want := sys.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("%s: recovered state differs from serial reference\n%s",
			label, crashtest.Report(t, "reference-"+label, core.DiffFingerprints(got, want, 8)))
	}
	// The serial reference replays the identical stream the live campaign
	// served, so it must also equal the live pre-hibernate fingerprint —
	// tying this sweep back to the live-vs-recovered contract.
	if got := sys.Fingerprint(); got != f.fpLive {
		t.Fatalf("%s: recovered state differs from live pre-hibernate state\n%s",
			label, crashtest.Report(t, "live-"+label, core.DiffFingerprints(got, f.fpLive, 8)))
	}
}

// TestHibernateCrashPointsExact sweeps the kill points of the hibernate
// sequence. Every image must recover the full record stream's state
// bit-exactly; only the replay LENGTH may vary with where the crash
// landed.
func TestHibernateCrashPointsExact(t *testing.T) {
	f := buildHibernateCrashFixture(t)
	all := len(f.recs)

	cases := []struct {
		label  string
		mutate func(snapPath string)
		// expected recovery shape
		snapshotUsed bool
		rejected     bool
		records      int
	}{
		{
			// Killed after the memory release (or clean shutdown): the final
			// snapshot covers the whole log — a wake restores it and replays
			// nothing. This is the O(suffix) contract with suffix 0.
			label:        "clean-hibernate",
			mutate:       func(string) {},
			snapshotUsed: true, records: 0,
		},
		{
			// Killed between the WAL fsync and the snapshot rename: the tmp
			// file never promoted, the PREVIOUS snapshot (here: the first
			// hibernate's) survives — restore it and replay the suffix.
			label: "crash-before-snapshot-rename",
			mutate: func(snapPath string) {
				if err := os.WriteFile(snapPath, f.staleSnap, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			snapshotUsed: true, records: all - f.staleSeq,
		},
		{
			// Killed before any snapshot ever existed (first hibernation's
			// fsync landed, write didn't): full replay, nothing lost.
			label: "crash-before-first-snapshot",
			mutate: func(snapPath string) {
				if err := os.Remove(snapPath); err != nil {
					t.Fatal(err)
				}
			},
			snapshotUsed: false, records: all,
		},
		{
			// Torn snapshot: a prefix of the file. The restore must reject it
			// LOUDLY and fall back to full replay — losing time, never state.
			label: "torn-snapshot-frame",
			mutate: func(snapPath string) {
				data, err := os.ReadFile(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, data[:len(data)/3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			snapshotUsed: false, rejected: true, records: all,
		},
		{
			// Near-complete tear: everything but the trailing checksum bytes.
			label: "torn-snapshot-tail",
			mutate: func(snapPath string) {
				data, err := os.ReadFile(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			snapshotUsed: false, rejected: true, records: all,
		},
		{
			// Bit rot in the middle of an intact-length file.
			label: "corrupt-snapshot-byte",
			mutate: func(snapPath string) {
				data, err := os.ReadFile(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x40
				if err := os.WriteFile(snapPath, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			snapshotUsed: false, rejected: true, records: all,
		},
	}
	for _, tc := range cases {
		crashRoot := f.buildImage(t, tc.mutate)
		f.bootAndCheck(t, tc.label, crashRoot, false, tc.snapshotUsed, tc.rejected, tc.records)
		// The same image must ALSO wake correctly under a capped registry —
		// the lazy path is how a crashed hibernation reboots at density.
		lazyRoot := f.buildImage(t, tc.mutate)
		f.bootAndCheck(t, tc.label, lazyRoot, true, tc.snapshotUsed, tc.rejected, tc.records)
	}

	// A life with no answer in it hibernates by drain → sync → close and
	// writes no file, so every kill point of that hibernation leaves the one
	// image: the log alone. It boots by replaying all of it — the
	// publication, and the seeds — with no snapshot to use or reject.
	for label, seeded := range map[string]bool{"publish-only": false, "seeds-only": true} {
		f := buildAnswerFreeFixture(t, seeded)
		for _, lazy := range []bool{false, true} {
			image := f.buildImage(t, func(string) {})
			f.bootAndCheck(t, label, image, lazy, false, false, len(f.recs))
		}
	}
}

// TestHibernateCrashMidLogTear combines a torn snapshot with a torn WAL
// tail — the double-fault image of a machine dying mid-hibernate while
// the filesystem scrambles both files. The boot must reject the snapshot,
// replay the intact record prefix, and match the serial reference OF THAT
// PREFIX: every durable record survives, every torn one was never
// acknowledged as covered.
func TestHibernateCrashMidLogTear(t *testing.T) {
	f := buildHibernateCrashFixture(t)
	surviving := len(f.recs) - 2

	crashRoot := t.TempDir()
	crashtest.CopyTree(t, filepath.Join(f.root, storeDir), filepath.Join(crashRoot, storeDir))
	dst := filepath.Join(crashRoot, campaignsDir, "solo")
	crashtest.ReadLog(t, f.dir).Cut(t, dst, crashtest.Kill{Surviving: surviving, Torn: 5})
	// Stale snapshot from the first hibernate: it covers a prefix of the
	// surviving records, so it is USABLE — restore + suffix replay up to
	// the tear.
	if err := os.WriteFile(filepath.Join(dst, snapshot.FileName), f.staleSnap, 0o644); err != nil {
		t.Fatal(err)
	}

	booted, err := Open(crashConfig(crashRoot))
	if err != nil {
		t.Fatal(err)
	}
	defer booted.Close()
	sys, err := get(booted, "solo")
	if err != nil {
		t.Fatal(err)
	}
	info := sys.Recovery()
	if !info.SnapshotUsed {
		t.Fatalf("stale-but-valid snapshot not used (rejected: %q)", info.SnapshotRejected)
	}
	if !info.TornTail {
		t.Fatal("torn WAL tail not reported")
	}
	if info.Records != surviving-f.staleSeq {
		t.Fatalf("replayed %d records, want the %d-record suffix", info.Records, surviving-f.staleSeq)
	}
	ref, refStore := referenceSystem(t, "solo", f.recs[:surviving], filepath.Join(f.root, storeDir), f.m)
	defer refStore.Close()
	defer ref.Close()
	if got, want := sys.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("double-fault recovery differs from serial reference of the surviving prefix\n%s",
			crashtest.Report(t, "double-fault", core.DiffFingerprints(got, want, 8)))
	}
}
