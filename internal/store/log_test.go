package store

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"docs/internal/mathx"
	"docs/internal/truth"
	"docs/internal/wal"
)

// storePrint renders every worker record and every profile anchor as
// float64 bits.
func storePrint(s *Store) string {
	out := ""
	for _, w := range s.Workers() {
		st, _ := s.Worker(w)
		out += fmt.Sprintf("w %q %s\n", w, statsBits(st))
	}
	for _, pid := range s.ProfileIDs() {
		a, _ := s.ProfileAnchor(pid)
		out += fmt.Sprintf("p %q %s\n", pid, statsBits(a))
	}
	return out
}

func statsBits(st *truth.Stats) string {
	out := ""
	for k := range st.Q {
		out += fmt.Sprintf("%016x/%016x ", math.Float64bits(st.Q[k]), math.Float64bits(st.U[k]))
	}
	return out
}

// randomStats draws statistics over m domains that lean on what a codec can
// get wrong: most entries at the defaults (sparse on disk), some −0 and
// denormal, now and then a vector left entirely at the defaults.
func randomStats(r *mathx.Rand, m int) *truth.Stats {
	st := truth.NewStats(m)
	if r.Float64() < 0.15 {
		return st
	}
	for k := 0; k < m; k++ {
		switch x := r.Float64(); {
		case x < 0.6:
		case x < 0.7:
			st.Q[k], st.U[k] = math.Copysign(0, -1), math.Copysign(0, -1)
		case x < 0.8:
			st.Q[k], st.U[k] = math.Float64frombits(uint64(1+r.Intn(1000))), math.Float64frombits(uint64(1+r.Intn(1000)))
		default:
			st.Q[k], st.U[k] = r.Float64(), r.Range(0, 20)
		}
	}
	return st
}

// TestPropertyStoreReopenBitExact: seeded Put / Session / MergeProfile
// streams from several goroutines — workers, scopes and profile IDs shared
// between them, so the log's order is the only record of how they
// interleaved —
// leave a log whose reopen rebuilds every worker record and every profile
// anchor bit for bit, with the live store still open (a crash image) and
// after it is closed.
func TestPropertyStoreReopenBitExact(t *testing.T) {
	const m = 5
	for seed := uint64(1); seed <= 4; seed++ {
		path := filepath.Join(t.TempDir(), "store")
		live, err := Open(path, m)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(r *mathx.Rand) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					w, st := fmt.Sprintf("w%d", r.Intn(6)), randomStats(r, m)
					var err error
					switch x := r.Float64(); {
					case x < 0.2:
						err = live.Put(w, st)
					case x < 0.6:
						err = live.Session(fmt.Sprintf("c%d", r.Intn(3)), w, st)
					default:
						_, _, err = live.MergeProfile(fmt.Sprintf("c%d/%s", r.Intn(3), w), w, st)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(mathx.NewRand(seed*100 + uint64(g)))
		}
		wg.Wait()
		want := storePrint(live)
		if live.Len() == 0 || len(live.ProfileIDs()) == 0 {
			t.Fatalf("seed %d: the stream left %d workers and %d profiles", seed, live.Len(), len(live.ProfileIDs()))
		}
		for _, closeFirst := range []bool{false, true} {
			if closeFirst {
				if err := live.Close(); err != nil {
					t.Fatal(err)
				}
			}
			again, err := Open(path, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := storePrint(again); got != want {
				t.Fatalf("seed %d (closed first: %v): reopened store differs from the live one\ngot:\n%s\nwant:\n%s", seed, closeFirst, got, want)
			}
			if err := again.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestStoreMergesGroupCommit: profiling merges from concurrent campaigns do
// not queue on one fsync each. Sixteen concurrent MergeProfiles with
// distinct profile IDs, lined up behind the store lock, cost fewer than
// sixteen counted fsyncs — each reserves its record under the lock and
// waits for it outside, so they share the log's group commits, where a
// merge that fsynced under the lock would cost one apiece — and all
// sixteen anchors survive a reopen bit for bit.
func TestStoreMergesGroupCommit(t *testing.T) {
	const m, n = 4, 16
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	anchors := make([]*truth.Stats, n)
	var ready, wg sync.WaitGroup
	before := wal.Fsyncs()
	s.mu.Lock()
	for i := 0; i < n; i++ {
		ready.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ready.Done()
			st := truth.NewStats(m)
			st.Q[i%m], st.U[i%m] = 0.9, float64(i+1)
			a, applied, err := s.MergeProfile(fmt.Sprintf("c%d/w", i), fmt.Sprintf("w%d", i%3), st)
			if err != nil || !applied {
				t.Errorf("merge %d: applied %v, err %v", i, applied, err)
			}
			anchors[i] = a
		}(i)
	}
	ready.Wait() // each merge signals on its way to the lock
	s.mu.Unlock()
	wg.Wait()
	got := wal.Fsyncs() - before
	t.Logf("%d concurrent profiling merges, %d fsyncs", n, got)
	if got >= n {
		t.Errorf("%d concurrent profiling merges cost %d fsyncs, want fewer than %d", n, got, n)
	}
	again, err := Open(path, m)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	for i, want := range anchors {
		if got, ok := again.ProfileAnchor(fmt.Sprintf("c%d/w", i)); !ok || !statsEqual(got, want) {
			t.Errorf("anchor %d after reopen = %+v (found %v), want %+v", i, got, ok, want)
		}
	}
}

// TestReadsWaitForTheirRecord: a value a read returns is already in the
// log. One goroutine adds weight-1 sessions to a worker, each in a scope of
// its own, while the test reads the worker back and counts the records the
// log holds: the weight it read never exceeds that count. A read that did
// not wait for the newest reservation sees sessions the flusher has not
// written yet.
func TestReadsWaitForTheirRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	s, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if err := s.Session(fmt.Sprintf("c%d", i), "w", &truth.Stats{Q: []float64{0.5}, U: []float64{1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if st, ok := s.Worker("w"); ok {
			if n := records(t, path); float64(n) < st.U[0] {
				t.Fatalf("read weight %g with %d records in the log", st.U[0], n)
			}
		}
	}
}

// TestStoreOpenSyncsNewDirectory: a store opened at a fresh path outside
// any registry root makes its directory as durable as its records — two
// counted fsyncs, the new directory's entry in its parent and the first
// segment's entry in the new directory — and an existing one costs none.
func TestStoreOpenSyncsNewDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store")
	before := wal.Fsyncs()
	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := wal.Fsyncs() - before; got != 2 {
		t.Errorf("opening a fresh store cost %d fsyncs, want 2 (parent entry, segment entry)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before = wal.Fsyncs()
	s, err = Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := wal.Fsyncs() - before; got != 0 {
		t.Errorf("reopening a store cost %d fsyncs, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
