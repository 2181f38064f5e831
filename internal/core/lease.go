package core

import (
	"cmp"
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
	byWorker map[string][]heldLease // worker -> their leases, by ascending position
	exp      expiryHeap             // possibly-stale (expiry, worker, position) entries
}

// heldLease is one live lease: the task's position and its expiry. A worker
// holds a HIT's worth at most, a short slice searched by position.
type heldLease struct {
	pos int
	at  time.Time
}

// find returns where position p falls in held, and whether it is there.
func find(held []heldLease, p int) (int, bool) {
	return slices.BinarySearchFunc(held, p, func(l heldLease, p int) int { return cmp.Compare(l.pos, p) })
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
		byWorker: make(map[string][]heldLease),
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
	for _, l := range lt.byWorker[workerID] {
		held = append(held, l.pos)
	}
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
		held := lt.byWorker[e.worker]
		x, live := find(held, e.pos)
		if !live || held[x].at.After(now) {
			continue // released, or re-granted with a later expiry
		}
		lt.dropLocked(e.worker, held, x)
	}
}

// dropLocked ends the worker's x'th lease, held being all of them.
func (lt *leaseTable) dropLocked(workerID string, held []heldLease, x int) {
	lt.slots[held[x].pos].Add(-1)
	lt.active.Add(-1)
	if held = slices.Delete(held, x, x+1); len(held) == 0 {
		delete(lt.byWorker, workerID)
	} else {
		lt.byWorker[workerID] = held
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
	held := lt.byWorker[workerID]
	for _, p := range positions {
		x, live := find(held, p)
		switch {
		case !live:
			held = slices.Insert(held, x, heldLease{pos: p})
			lt.slots[p].Add(1)
			lt.active.Add(1)
		case held[x].at.Equal(expiry):
			continue // its one heap entry stands
		}
		held[x].at = expiry
		heap.Push(&lt.exp, leaseEntry{at: expiry, worker: workerID, pos: p})
	}
	lt.byWorker[workerID] = held
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
		held := lt.byWorker[e.worker]
		if x, ok := find(held, e.pos); ok && held[x].at.Equal(e.at) {
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
	held := lt.byWorker[workerID]
	x, live := find(held, p)
	if !live {
		return
	}
	lt.dropLocked(workerID, held, x)
	lt.compactLocked()
}
