package model

import (
	"fmt"
	"slices"
	"testing"

	"docs/internal/mathx"
)

// randomLog draws n answers with distinct (worker, task) pairs over the
// given workers and task IDs, in random order.
func randomLog(r *mathx.Rand, workers int, ids []int, n int) []Answer {
	seen := map[[2]int]bool{}
	log := make([]Answer, 0, n)
	for len(log) < n {
		w, t := r.Intn(workers), r.Intn(len(ids))
		if seen[[2]int{w, t}] {
			continue
		}
		seen[[2]int{w, t}] = true
		log = append(log, Answer{Worker: fmt.Sprintf("w%d", w), Task: ids[t], Choice: r.Intn(4)})
	}
	return log
}

// indexLog indexes a log naming its tasks by ID, each at its ID's place in
// ids, and its workers at handles in first-seen order.
func indexLog(ids []int, log []Answer) (*LogIndex, error) {
	var names []string
	handle, position := map[string]int32{}, map[int]int32{}
	for p, id := range ids {
		position[id] = int32(p)
	}
	var cols Columns
	for _, a := range log {
		h, ok := handle[a.Worker]
		if !ok {
			h = int32(len(names))
			handle[a.Worker], names = h, append(names, a.Worker)
		}
		cols = cols.Append(h, position[a.Task], int32(a.Choice))
	}
	return IndexColumns(names, idOf(ids), cols, Columns{})
}

// idOf names a task's ID by its place in ids.
func idOf(ids []int) func(int32) int { return func(p int32) int { return ids[p] } }

// taskIDs returns the IDs of the tasks the index holds answers for, sorted.
func taskIDs(x *LogIndex, ids []int) []int {
	out := make([]int, len(x.Tasks()))
	for i, t := range x.Tasks() {
		out[i] = ids[t]
	}
	slices.Sort(out)
	return out
}

// answersAt resolves index positions to the answers they name.
func answersAt(x *LogIndex, ps []int32) []Answer {
	out := make([]Answer, len(ps))
	for i, p := range ps {
		out[i] = x.At(p)
	}
	return out
}

// TestPropertyLogIndexMatchesAnswerSet: over seeded random logs, the index
// groups every task's answers, at the task's position, and every worker's in
// the order an AnswerSet built from the same log keeps, lists the same
// sorted workers and, by ascending position, the tasks the set lists, and
// refuses a log with repeats with the error Add returns on it — the earliest
// repeat in log order.
func TestPropertyLogIndexMatchesAnswerSet(t *testing.T) {
	r := mathx.NewRand(39)
	ascending := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	scattered := r.Perm(80) // out of order, half of them negative
	for i := range scattered {
		scattered[i] -= 40
	}
	shapes := []struct {
		name       string
		workers, n int
		ids        []int
	}{
		{"empty", 1, 0, ascending(5)},
		{"one worker", 1, 40, ascending(60)},
		{"negative task IDs out of order", 9, 200, scattered},
		{"many workers per task", 80, 220, ascending(4)},
	}
	for _, sh := range shapes {
		for trial := 0; trial < 25; trial++ {
			log := randomLog(r, sh.workers, sh.ids, sh.n)
			as := NewAnswerSet()
			for _, a := range log {
				if err := as.Add(a); err != nil {
					t.Fatal(err)
				}
			}
			x, err := indexLog(sh.ids, log)
			if err != nil {
				t.Fatalf("%s: %v", sh.name, err)
			}
			if x.Len() != as.Len() || !slices.Equal(x.Workers(), as.Workers()) || !slices.Equal(taskIDs(x, sh.ids), as.Tasks()) ||
				!slices.IsSorted(x.Tasks()) {
				t.Fatalf("%s: index has %d answers, workers %v, tasks %v; the set %d, %v, %v",
					sh.name, x.Len(), x.Workers(), x.Tasks(), as.Len(), as.Workers(), as.Tasks())
			}
			for p, id := range sh.ids {
				if got, want := answersAt(x, x.ForTask(int32(p))), as.ForTask(id); !slices.Equal(got, want) {
					t.Fatalf("%s: task %d: index %v, set %v", sh.name, id, got, want)
				}
			}
			for w, name := range x.Workers() {
				ps := x.ForWorker(w)
				if got, want := answersAt(x, ps), as.ForWorker(name); !slices.Equal(got, want) {
					t.Fatalf("%s: worker %s: index %v, set %v", sh.name, name, got, want)
				}
				for _, p := range ps {
					if x.WorkerOf(p) != int32(w) {
						t.Fatalf("%s: answer %d is worker %d's, WorkerOf says %d", sh.name, p, w, x.WorkerOf(p))
					}
				}
			}

			if len(log) == 0 {
				continue
			}
			// Repeat 1–4 earlier answers (new choices), each at a random later
			// place; the set refuses the first repeat in log order.
			dup := slices.Clone(log)
			for k := 1 + r.Intn(4); k > 0; k-- {
				p := r.Intn(len(dup))
				a := dup[p]
				a.Choice = r.Intn(4)
				dup = slices.Insert(dup, p+1+r.Intn(len(dup)-p), a)
			}
			var want error
			set := NewAnswerSet()
			for _, a := range dup {
				if want = set.Add(a); want != nil {
					break
				}
			}
			if _, err := indexLog(sh.ids, dup); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: a log with repeats: the index says %v, Add says %v", sh.name, err, want)
			}
		}
	}
}

// TestPropertyTailIndexMatchesConcatenation: indexing a log and a tail as
// columns over shared worker and task tables, in place, is indexing the two
// answer logs laid end to end, and its Head is indexing the log alone — same
// workers, tasks, groups and worker places — whether the tail's tasks and
// workers are the log's or others.
func TestPropertyTailIndexMatchesConcatenation(t *testing.T) {
	r := mathx.NewRand(53)
	for trial := 0; trial < 60; trial++ {
		ids := r.Perm(40)
		workers := 1 + r.Intn(30)
		all := randomLog(r, workers, ids, r.Intn(min(300, workers*len(ids))))
		cut := r.Intn(len(all) + 1)
		if trial%2 == 0 { // the tail's tasks are its own, as golden tasks are
			slices.SortStableFunc(all, func(a, b Answer) int { return cmpBool(a.Task >= 20, b.Task >= 20) })
			cut = 0
			for cut < len(all) && all[cut].Task < 20 {
				cut++
			}
		}
		var names []string
		handle, position := map[string]int32{}, map[int]int32{}
		for _, id := range ids {
			position[id] = int32(len(position))
		}
		columns := func(log []Answer) Columns {
			var c Columns
			for _, a := range log {
				h, ok := handle[a.Worker]
				if !ok {
					h = int32(len(names))
					handle[a.Worker], names = h, append(names, a.Worker)
				}
				c = c.Append(h, position[a.Task], int32(a.Choice))
			}
			return c
		}
		head, tail := columns(all[:cut]), columns(all[cut:])
		x, err := IndexColumns(names, idOf(ids), head, tail)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			got  *LogIndex
			log  []Answer
		}{{"log and tail", x, all}, {"Head", x.Head(), all[:cut]}} {
			want, err := indexLog(ids, c.log)
			if err != nil {
				t.Fatal(err)
			}
			got := c.got
			if got.Len() != want.Len() || !slices.Equal(got.Workers(), want.Workers()) || !slices.Equal(got.Tasks(), want.Tasks()) {
				t.Fatalf("trial %d, %s: %d answers, workers %v, tasks %v; want %d, %v, %v",
					trial, c.name, got.Len(), got.Workers(), got.Tasks(), want.Len(), want.Workers(), want.Tasks())
			}
			for p, id := range ids {
				if g, w := answersAt(got, got.ForTask(int32(p))), answersAt(want, want.ForTask(int32(p))); !slices.Equal(g, w) {
					t.Fatalf("trial %d, %s: task %d: %v, want %v", trial, c.name, id, g, w)
				}
			}
			for w := range want.Workers() {
				if g, wa := answersAt(got, got.ForWorker(w)), answersAt(want, want.ForWorker(w)); !slices.Equal(g, wa) {
					t.Fatalf("trial %d, %s: worker %d: %v, want %v", trial, c.name, w, g, wa)
				}
				for _, p := range got.ForWorker(w) {
					if got.WorkerOf(p) != int32(w) {
						t.Fatalf("trial %d, %s: answer %d is worker %d's, WorkerOf says %d", trial, c.name, p, w, got.WorkerOf(p))
					}
				}
			}
		}
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}
