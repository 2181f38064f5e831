package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injected lease clock: tests advance it explicitly, so
// TTL expiry is exercised deterministically with no sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func taskIDSet(t *testing.T, sys *System, worker string, k int) map[int]bool {
	t.Helper()
	got, err := sys.Request(worker, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int]bool, len(got))
	for _, tk := range got {
		out[tk.ID] = true
	}
	return out
}

// TestLeaseDoubleRequestDisjoint is the double-assignment contract: a
// worker who requests again without submitting holds leases on the first
// batch, so consecutive requests return disjoint task sets until the pool
// drains — and the tasks come back after the TTL expires.
func TestLeaseDoubleRequestDisjoint(t *testing.T) {
	const n, k = 20, 5
	clk := newFakeClock()
	s := newSystem(t, Config{
		GoldenCount: -1, HITSize: k, RerunEvery: -1,
		LeaseTTL: time.Minute, Clock: clk.Now,
	})
	if err := s.Publish(indexTasks(n, s.Domains().Size())); err != nil {
		t.Fatal(err)
	}

	seen := make(map[int]bool)
	for i := 0; i < n/k; i++ {
		batch := taskIDSet(t, s, "w", k)
		if len(batch) != k {
			t.Fatalf("request %d returned %d tasks, want %d", i, len(batch), k)
		}
		for id := range batch {
			if seen[id] {
				t.Fatalf("request %d re-assigned leased task %d", i, id)
			}
			seen[id] = true
		}
	}
	if got := s.Stats().LeasesActive; got != n {
		t.Fatalf("ActiveLeases = %d, want %d", got, n)
	}
	// Pool exhausted: everything is leased to this worker.
	if batch := taskIDSet(t, s, "w", k); len(batch) != 0 {
		t.Fatalf("request on a fully leased pool returned %d tasks", len(batch))
	}

	// TTL elapses: the same worker gets tasks again.
	clk.Advance(time.Minute + time.Second)
	batch := taskIDSet(t, s, "w", k)
	if len(batch) != k {
		t.Fatalf("request after TTL expiry returned %d tasks, want %d", len(batch), k)
	}
	if got := s.Stats().LeasesActive; got != k {
		t.Fatalf("ActiveLeases after expiry+regrant = %d, want %d", got, k)
	}
}

// TestLeaseReleasedOnSubmit: answering retires the lease — the serial
// request→submit-all pattern never accumulates leases, and the per-task
// slot frees for other workers immediately.
func TestLeaseReleasedOnSubmit(t *testing.T) {
	const n, k = 10, 5
	clk := newFakeClock()
	s := newSystem(t, Config{
		GoldenCount: -1, HITSize: k, RerunEvery: -1, AnswersPerTask: 2,
		LeaseTTL: time.Minute, Clock: clk.Now,
	})
	if err := s.Publish(indexTasks(n, s.Domains().Size())); err != nil {
		t.Fatal(err)
	}
	first := taskIDSet(t, s, "w", k)
	if got := s.Stats().LeasesActive; got != k {
		t.Fatalf("ActiveLeases after request = %d, want %d", got, k)
	}
	for id := range first {
		if err := s.Submit("w", id, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().LeasesActive; got != 0 {
		t.Fatalf("ActiveLeases after submitting all = %d, want 0", got)
	}
	// With redundancy 2 and one answer each, another worker can be served
	// the very same tasks: the released leases no longer count against the
	// open slots.
	second := taskIDSet(t, s, "w2", n)
	if len(second) != n {
		t.Fatalf("w2 got %d tasks, want all %d", len(second), n)
	}
}

// TestLeaseBoundsOutstandingAssignments: with AnswersPerTask = 1, a task
// leased to one worker has no open slot left, so a second worker gets
// nothing until the lease expires — concurrent traffic cannot over-assign
// past redundancy by more than the requests racing one grant.
func TestLeaseBoundsOutstandingAssignments(t *testing.T) {
	const n = 10
	clk := newFakeClock()
	s := newSystem(t, Config{
		GoldenCount: -1, HITSize: n, RerunEvery: -1, AnswersPerTask: 1,
		LeaseTTL: time.Minute, Clock: clk.Now,
	})
	if err := s.Publish(indexTasks(n, s.Domains().Size())); err != nil {
		t.Fatal(err)
	}
	first := taskIDSet(t, s, "w1", n)
	if len(first) != n {
		t.Fatalf("w1 got %d tasks, want %d", len(first), n)
	}
	if batch := taskIDSet(t, s, "w2", n); len(batch) != 0 {
		t.Fatalf("w2 got %d tasks while every slot is leased to w1", len(batch))
	}
	clk.Advance(2 * time.Minute)
	if batch := taskIDSet(t, s, "w2", n); len(batch) != n {
		t.Fatalf("w2 got %d tasks after w1's leases expired, want %d", len(batch), n)
	}
}

// TestLeaseScanPathParity: the legacy scan path applies the same lease
// filters as the indexed path, so the two stay interchangeable (the
// equivalence oracle must hold with leases armed too).
func TestLeaseScanPathParity(t *testing.T) {
	const n, k = 12, 4
	for _, scan := range []bool{false, true} {
		clk := newFakeClock()
		s := newSystem(t, Config{
			GoldenCount: -1, HITSize: k, RerunEvery: -1, AnswersPerTask: 1,
			LeaseTTL: time.Minute, Clock: clk.Now,
		})
		if scan {
			s.assignOracle = s.assignScan
		}
		if err := s.Publish(indexTasks(n, s.Domains().Size())); err != nil {
			t.Fatal(err)
		}
		a := taskIDSet(t, s, "w", k)
		b := taskIDSet(t, s, "w", k)
		for id := range b {
			if a[id] {
				t.Fatalf("scan=%v: overlapping batches on task %d", scan, id)
			}
		}
		if other := taskIDSet(t, s, "w2", n); len(other) != n-2*k {
			t.Fatalf("scan=%v: w2 got %d tasks, want the %d unleased ones", scan, len(other), n-2*k)
		}
	}
}

// TestLeaseStatsLazyExpiry is the idle-server regression: lazy expiry used
// to run only at Request start, so a server receiving no requests reported
// expired leases as active forever — monitoring watching leases_active on
// an idle campaign saw a permanently wrong gauge. The stats read path must
// process due expiries itself, driven here by the fake clock with no
// requests after the TTL elapses.
func TestLeaseStatsLazyExpiry(t *testing.T) {
	const n, k = 10, 5
	clk := newFakeClock()
	s := newSystem(t, Config{
		GoldenCount: -1, HITSize: k, RerunEvery: -1,
		LeaseTTL: time.Minute, Clock: clk.Now,
	})
	if err := s.Publish(indexTasks(n, s.Domains().Size())); err != nil {
		t.Fatal(err)
	}
	if got := taskIDSet(t, s, "w", k); len(got) != k {
		t.Fatalf("request returned %d tasks, want %d", len(got), k)
	}
	if got := s.Stats().LeasesActive; got != k {
		t.Fatalf("ActiveLeases = %d, want %d", got, k)
	}
	// TTL elapses with NO further requests: the stats read alone must
	// retire the leases.
	clk.Advance(time.Minute + time.Second)
	if got := s.Stats().LeasesActive; got != 0 {
		t.Fatalf("ActiveLeases on an idle system after TTL = %d, want 0", got)
	}
	// And the expiry actually freed the slots, not just the counter.
	if got := taskIDSet(t, s, "w", k); len(got) != k {
		t.Fatalf("request after stats-driven expiry returned %d tasks, want %d", len(got), k)
	}
}

// TestLeaseHeapTracksLiveLeases: the expiry heap grows with live leases,
// not with grants. 10,000 request→submit cycles under a TTL that never
// elapses leave every grant's entry stale, and the heap still holds at most
// two entries per live lease plus a constant, after every step.
func TestLeaseHeapTracksLiveLeases(t *testing.T) {
	const n, workers, cycles = 100, 100, 10_000
	const slack = 64 // the table's staleSlack
	clk := newFakeClock()
	s := newSystem(t, Config{
		GoldenCount: -1, HITSize: 1, RerunEvery: -1, AnswersPerTask: workers,
		LeaseTTL: time.Hour, Clock: clk.Now,
	})
	if err := s.Publish(indexTasks(n, s.Domains().Size())); err != nil {
		t.Fatal(err)
	}
	bound := func(step string) {
		t.Helper()
		var heapLen, live int
		s.read(func() { heapLen, live = len(s.leases.exp), int(s.leases.active.Load()) })
		if heapLen > 2*live+slack {
			t.Fatalf("%s: the expiry heap holds %d entries for %d live leases, want at most %d", step, heapLen, live, 2*live+slack)
		}
	}
	for c := 0; c < cycles; c++ {
		w := fmt.Sprintf("w%d", c%workers)
		got, err := s.Request(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 {
			t.Fatalf("cycle %d: %s got %d tasks, want 1", c, w, len(got))
		}
		bound(fmt.Sprintf("cycle %d request", c))
		if err := s.Submit(w, got[0].ID, 0); err != nil {
			t.Fatal(err)
		}
		bound(fmt.Sprintf("cycle %d submit", c))
	}
	if got := s.Stats().LeasesActive; got != 0 {
		t.Fatalf("ActiveLeases = %d after every lease was answered, want 0", got)
	}
}
