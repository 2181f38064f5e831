package core

import (
	"container/heap"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// leaseTable tracks outstanding assignments: when a task is served to a
// worker on the OTA path, the worker holds a lease on it until they submit
// an answer or the lease's TTL elapses. Leases give Request the paper's
// one-HIT-at-a-time semantics under concurrency:
//
//   - a worker re-requesting before submitting is excluded from the tasks
//     they already hold, so two requests in flight return disjoint batches;
//   - a task's open slots are reduced by its active leases, so with a
//     redundancy cap of R a task with a answers and l live leases stops
//     being assigned once a+l ≥ R — heavy concurrent traffic cannot
//     over-assign it far past its redundancy (the overshoot is bounded by
//     the number of requests racing the same grant, never compounding).
//
// Leases are serving-only state: they are never written to the WAL. A
// lease is a promise about the near future ("an answer for this task may
// arrive shortly"), not a fact about the campaign, and logging it would
// force recovery to reason about wall-clock time. The cost is documented
// and bounded: after a crash, recovery replays answers but not outstanding
// leases, so workers who held assignments at crash time may briefly be
// re-assigned the same tasks and a task may collect a few answers past its
// redundancy cap until TTLs would have expired anyway. Extra answers are
// absorbed by truth inference exactly like any over-redundant answer; no
// state corruption is possible. See docs/assignment.md.
//
// Time is injected (Config.Clock) so tests drive expiry deterministically
// with no sleeps. All mutations take one mutex; per-task active counts are
// additionally mirrored in atomics so the assignment filter reads them
// without locking.
type leaseTable struct {
	ttl time.Duration
	now func() time.Time

	// slots holds every task's live lease count at its publication
	// position. installPublication sizes it once, before serving, and it
	// never grows: concurrent readers only perform atomic loads on the
	// counters. A golden task is never leased; its counter stays 0.
	slots []atomic.Int32

	active atomic.Int64 // total live leases, the /stats gauge

	mu       sync.Mutex
	byWorker map[string]map[int]time.Time // worker -> task position -> expiry
	exp      expiryHeap                   // possibly-stale (expiry, worker, position) entries
}

// staleSlack is how many heap entries beyond twice the live leases the
// table tolerates before compactLocked rebuilds the heap.
const staleSlack = 64

// leaseEntry is one scheduled expiry; a live lease has exactly one whose
// expiry is the lease's. A release or a re-grant leaves the old entry in
// the heap, where it is discarded when popped (byWorker is the authority)
// or dropped when stale entries come to outnumber live leases
// (compactLocked).
type leaseEntry struct {
	at     time.Time
	worker string
	pos    int
}

type expiryHeap []leaseEntry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(leaseEntry)) }
func (h *expiryHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

func newLeaseTable(ttl time.Duration, now func() time.Time) *leaseTable {
	if now == nil {
		//docs:allow clock injection-point default; tests pass a fake clock, leases never enter durable state
		now = time.Now
	}
	return &leaseTable{
		ttl:      ttl,
		now:      now,
		byWorker: make(map[string]map[int]time.Time),
	}
}

// install gives each of a publication's n tasks a lease counter at its
// position.
func (lt *leaseTable) install(n int) { lt.slots = make([]atomic.Int32, n) }

// beginRequest processes due expiries and appends to held, ascending, the
// positions of the tasks the worker currently holds leases on — the
// per-worker exclusion for this request. One locked pass per request; the
// cost is O(expired·log + held·log held).
func (lt *leaseTable) beginRequest(workerID string, held []int) []int {
	now := lt.now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.expireLocked(now)
	for p := range lt.byWorker[workerID] {
		held = append(held, p)
	}
	slices.Sort(held)
	return held
}

// activeNow processes due expiries and returns the live lease count. This
// is the stats read path: without the expiry pass, an idle server — no
// requests arriving to run beginRequest — would report expired leases as
// active forever.
func (lt *leaseTable) activeNow() int64 {
	now := lt.now()
	lt.mu.Lock()
	lt.expireLocked(now)
	n := lt.active.Load()
	lt.mu.Unlock()
	return n
}

// expireLocked drops every lease whose TTL elapsed. Heap entries that were
// released or superseded by a newer grant are discarded without effect.
func (lt *leaseTable) expireLocked(now time.Time) {
	for len(lt.exp) > 0 && !lt.exp[0].at.After(now) {
		e := heap.Pop(&lt.exp).(leaseEntry)
		held, ok := lt.byWorker[e.worker]
		if !ok {
			continue
		}
		expiry, live := held[e.pos]
		if !live || expiry.After(now) {
			continue // released, or re-granted with a later expiry
		}
		delete(held, e.pos)
		if len(held) == 0 {
			delete(lt.byWorker, e.worker)
		}
		lt.slots[e.pos].Add(-1)
		lt.active.Add(-1)
	}
}

// grant records leases for the tasks just assigned to the worker, given by
// position. A task the worker already holds (two racing requests selecting
// it before either grant landed) only has its expiry extended.
func (lt *leaseTable) grant(workerID string, positions []int) {
	if len(positions) == 0 {
		return
	}
	now := lt.now()
	expiry := now.Add(lt.ttl)
	lt.mu.Lock()
	defer lt.mu.Unlock()
	held, ok := lt.byWorker[workerID]
	if !ok {
		held = make(map[int]time.Time, len(positions))
		lt.byWorker[workerID] = held
	}
	for _, p := range positions {
		at, live := held[p]
		switch {
		case !live:
			lt.slots[p].Add(1)
			lt.active.Add(1)
		case at.Equal(expiry):
			continue // its one heap entry stands
		}
		held[p] = expiry
		heap.Push(&lt.exp, leaseEntry{at: expiry, worker: workerID, pos: p})
	}
	lt.compactLocked()
}

// compactLocked drops the stale entries — released, or superseded by a
// later grant — once the heap holds more than twice as many entries as
// there are live leases (plus staleSlack), keeping the one entry each live
// lease has. Without it the heap would hold every grant of the last TTL,
// answered or not. Each task granted or released moves len(exp) − 2·live
// by at most two, so a pass, which costs O(len(exp)), follows at least
// (live+staleSlack)/2 of them since the last: O(1) amortised.
func (lt *leaseTable) compactLocked() {
	if len(lt.exp) <= 2*int(lt.active.Load())+staleSlack {
		return
	}
	live := lt.exp[:0]
	for _, e := range lt.exp {
		if at, ok := lt.byWorker[e.worker][e.pos]; ok && at.Equal(e.at) {
			live = append(live, e)
		}
	}
	clear(lt.exp[len(live):]) // no stale entry keeps its worker's name alive
	lt.exp = live
	heap.Init(&lt.exp)
}

// release drops the worker's lease on the task at position p, if any —
// called when their answer is accepted. The heap entry stays behind until
// its expiry comes due or a rebuild drops it.
func (lt *leaseTable) release(workerID string, p int) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	held, ok := lt.byWorker[workerID]
	if !ok {
		return
	}
	if _, live := held[p]; !live {
		return
	}
	delete(held, p)
	if len(held) == 0 {
		delete(lt.byWorker, workerID)
	}
	lt.slots[p].Add(-1)
	lt.active.Add(-1)
	lt.compactLocked()
}
