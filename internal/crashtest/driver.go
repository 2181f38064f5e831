package crashtest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"docs/internal/mathx"
	"docs/internal/wal"
)

// Campaign is the system a scenario drives, as the driver sees it. The
// tests of a package implement it once, over the package's own system: the
// durable tree is a store log under "store" and one log per campaign under
// "campaigns/<name>", and a print is a campaign's state as compared bits.
type Campaign interface {
	// Open brings the system up over the durable tree at root: empty for
	// the live run, whose traffic calls ack at each acknowledged boundary —
	// after each mutation, or once after an op — and a crash image for a
	// boot, whose ack is nil.
	Open(t *testing.T, root string, ack func())
	// Recovered is what the boot recovered of each hosted campaign, keyed
	// by its log directory.
	Recovered(t *testing.T) map[string]Boot
	// Prints is every hosted campaign's print, keyed by its log directory.
	Prints(t *testing.T) map[string]string
	// Replay is the print of the serial replay of recs, the records a kill
	// left of the log at root/dir, over the store image at root.
	Replay(t *testing.T, root, dir string, recs []wal.Record) string
	// Diff says where two prints part.
	Diff(got, want string) string
	Close(t *testing.T)
}

// Boot is what the recovery of one campaign's log reports.
type Boot struct {
	Records  int  // the records it replayed
	Torn     bool // it cut a torn tail off the log
	Snapshot bool // it restored a snapshot
}

// Scenario is one seeded life of a campaign system and the cuts of its
// durable tree that are booted and held to it.
type Scenario[C Campaign] struct {
	Seed    uint64
	Traffic func(live C, r *mathx.Rand)    // the op stream, driven through live's own calls
	Every   bool                           // boot every acknowledged boundary, clean and torn into the next op's first frame
	Lost    bool                           // at every boundary the store log grew, boot without its final record, twice
	Kills   int                            // kill points drawn over each campaign's final log
	Extra   func(recs []wal.Record) []Kill // kill points added to the draw
}

// boundary is one acknowledged boundary: the live prints and a copy of the
// durable tree at that instant.
type boundary struct {
	prints map[string]string
	img    string
	store  uint64 // the store log's last sequence number
}

// Run runs sc live on a system from mk, then boots every cut sc asks for
// and the final tree, each on a fresh system from mk, and holds the prints
// of each boot to the live prints at its cut — or, for a kill point, to the
// serial replay of the records it left. A mismatch fails the test with the
// diff, which Report also writes under ReportEnv. Run returns the live
// system, closed.
func Run[C Campaign](t *testing.T, mk func() C, sc Scenario[C]) C {
	t.Helper()
	root, scratch := t.TempDir(), t.TempDir()
	live := mk()
	var bs []boundary
	ack := func() {
		if !sc.Every && !sc.Lost {
			return
		}
		b := boundary{prints: live.Prints(t), img: filepath.Join(scratch, fmt.Sprintf("b%04d", len(bs)))}
		CopyTree(t, root, b.img)
		if sc.Lost {
			b.store = storeSeq(t, filepath.Join(root, "store"))
		}
		bs = append(bs, b)
	}
	live.Open(t, root, ack)
	r := mathx.NewRand(sc.Seed)
	sc.Traffic(live, r)
	final := live.Prints(t)
	live.Close(t)

	for dir, b := range bootAs(t, mk, "final", root, final) {
		if b.Torn {
			t.Errorf("final: the clean shutdown left %s a torn tail", dir)
		}
	}
	torn, lost := 0, 0
	for i, b := range bs {
		if sc.Every {
			bootAs(t, mk, fmt.Sprintf("clean-%03d", i), b.img, b.prints)
		}
		if sc.Every && i+1 < len(bs) {
			img := filepath.Join(scratch, fmt.Sprintf("t%04d", i))
			CopyTree(t, b.img, img)
			for _, dir := range sorted(bs[i+1].prints) {
				if Grow(t, filepath.Join(b.img, dir), filepath.Join(bs[i+1].img, dir), filepath.Join(img, dir), r.Float64()) {
					bootAs(t, mk, fmt.Sprintf("torn-%03d", i), img, b.prints)
					torn++
					break
				}
			}
		}
		if sc.Lost && b.store > 0 && (i == 0 || b.store > bs[i-1].store) {
			DropLast(t, filepath.Join(b.img, "store"))
			bootAs(t, mk, fmt.Sprintf("lost-%03d", i), b.img, b.prints)
			bootAs(t, mk, fmt.Sprintf("relost-%03d", i), b.img, b.prints) // the first boot's repair boots the same
			lost++
		}
	}
	if (sc.Every && torn == 0) || (sc.Lost && lost == 0) {
		t.Fatalf("the scenario gave %d torn images and %d lost store records: too few cuts to hold it to", torn, lost)
	}
	if sc.Kills > 0 {
		kill(t, mk, sc, root, final, r)
	}
	return live
}

// kill boots sc.Kills crash images of the final tree: each campaign's log
// cut at its own kill point, drawn over its records, the store whole. Each
// boot replays exactly the surviving records, from no snapshot — a cut
// image holds none — reports a torn cut as a torn tail, and logs nothing to
// the store: replay reads profiles, it never re-merges them.
func kill[C Campaign](t *testing.T, mk func() C, sc Scenario[C], root string, final map[string]string, r *mathx.Rand) {
	t.Helper()
	ref, dirs := mk(), sorted(final)
	logs, kills, n := map[string]*Log{}, map[string][]Kill{}, 0
	for _, dir := range dirs {
		l := ReadLog(t, filepath.Join(root, dir))
		var extra []Kill
		if sc.Extra != nil {
			extra = sc.Extra(l.Records)
		}
		logs[dir], kills[dir] = l, Kills(r, sc.Kills, len(l.Records), 0, extra...)
		n = max(n, len(kills[dir]))
	}
	for i := 0; i < n; i++ {
		img := filepath.Join(t.TempDir(), "img")
		store := filepath.Join(img, "store")
		if _, err := os.Stat(filepath.Join(root, "store")); err == nil {
			CopyTree(t, filepath.Join(root, "store"), store)
		}
		want, cut := map[string]string{}, map[string]Kill{}
		for _, dir := range dirs {
			k := Kill{Surviving: len(logs[dir].Records)}
			if i < len(kills[dir]) {
				k = kills[dir][i]
			}
			logs[dir].Cut(t, filepath.Join(img, dir), k)
			want[dir], cut[dir] = ref.Replay(t, img, dir, logs[dir].Records[:k.Surviving]), k
		}
		before := storeSeq(t, store)
		boots := bootAs(t, mk, fmt.Sprintf("kill-%03d", i), img, want)
		for _, dir := range dirs {
			k, b := cut[dir], boots[dir]
			if b.Records != k.Surviving {
				t.Fatalf("kill %d: %s recovered %d records, want %d (torn=%d)", i, dir, b.Records, k.Surviving, k.Torn)
			}
			if b.Snapshot {
				t.Fatalf("kill %d: %s: a cut image holds no snapshot, yet the boot used one", i, dir)
			}
			if k.Torn > 0 && !b.Torn {
				t.Errorf("kill %d: %s: torn cut not reported as torn tail", i, dir)
			}
		}
		if storeSeq(t, store) != before {
			t.Fatalf("kill %d: boot replay mutated the shared worker store", i)
		}
	}
	ref.Close(t)
}

// storeSeq is the last sequence number of the store log at dir, 0 when
// there is none.
func storeSeq(t *testing.T, dir string) uint64 {
	seq, err := wal.TailSeq(dir)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// bootAs boots the tree at img on a fresh system from mk, holds the print
// of each campaign in want to it and returns what the boot recovered.
func bootAs[C Campaign](t *testing.T, mk func() C, label, img string, want map[string]string) map[string]Boot {
	t.Helper()
	c := mk()
	c.Open(t, img, nil)
	boots := c.Recovered(t)
	got := c.Prints(t)
	c.Close(t)
	for _, dir := range sorted(want) {
		if g, ok := got[dir]; !ok || g != want[dir] {
			t.Fatalf("%s: the boot of %s differs from the live state\n%s", label, dir,
				Report(t, fmt.Sprintf("%s-%s", label, filepath.Base(dir)), c.Diff(g, want[dir])))
		}
	}
	return boots
}

// sorted is the keys of m in order.
func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
