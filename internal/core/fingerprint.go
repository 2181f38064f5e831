package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"docs/internal/truth"
)

// Fingerprint renders every piece of campaign state the durability contract
// covers, with float64s written as raw bits so "close" never passes for
// "equal": published tasks and golden selection, per-task truth state
// (truth, answer count, S and M), the candidate index's open-task set in
// publication order, the chronological answer log, the golden
// answers and profiling flags per worker, per-worker incremental stats,
// per-worker profile anchors and answered sets (the log's, by worker), and
// the long-run store
// (worker records AND recorded profiling merges). Two Systems with equal
// fingerprints are in the same serving state down to the last ulp —
// /result responses are a pure function of the per-task views included
// here, so fingerprint equality implies byte-equal /result output.
//
// It is a diagnostic: the crash-injection suites (here and in the campaign
// registry) compare recovered systems against serial references — and,
// since the live-vs-recovered suite, against the LIVE pre-kill system —
// with it. It takes the internal locks briefly, so it is safe — but not
// free — to call on a serving system.
//
// docs-lint roots its determinism analysis here: everything reachable
// from this function must be clock-free, rand-free and iterate maps only
// through sorted keys (the collect-then-sort loops below are the model
// the analyzer accepts).
//
//docs:deterministic
func (s *System) Fingerprint() string {
	var b strings.Builder
	bits := func(f float64) { fmt.Fprintf(&b, "%016x,", math.Float64bits(f)) }

	s.mu.RLock()
	ids, golden := s.ids, s.golden
	s.mu.RUnlock()
	ci := s.index.Load()
	fmt.Fprintf(&b, "tasks:%d;", len(ids))
	for p, id := range ids {
		fmt.Fprintf(&b, "t%d:g%v:", id, golden[p])
		for _, r := range ci.rests[p].R {
			bits(r)
		}
	}

	fmt.Fprintf(&b, ";answers:%d;", s.submissions.Load())
	log := s.logPrefix()
	names := s.inc.Names() // read after every handle the log holds
	for i := range log.Len() {
		fmt.Fprintf(&b, "%s/%d/%d,", names[log.Worker[i]], ids[log.Task[i]], log.Choice[i])
	}

	b.WriteString(";views:")
	for p, id := range ids {
		if golden[p] {
			fmt.Fprintf(&b, "t%d:nil;", id)
			continue
		}
		v := ci.view(int32(p))
		fmt.Fprintf(&b, "t%d:c%d:n%d:S", id, v.Truth, v.NumAnswers)
		for _, x := range v.S {
			bits(x)
		}
		b.WriteString("M")
		for _, row := range v.M {
			for _, x := range row {
				bits(x)
			}
		}
		b.WriteString(";")
	}

	b.WriteString(";open:")
	if ci != nil {
		ci.mu.Lock()
		for p, open := range ci.open {
			if open {
				fmt.Fprintf(&b, "%d,", ci.ids[p])
			}
		}
		ci.mu.Unlock()
	}

	// Every worker's serving state, copied under their lock, and the tasks
	// the log says they answered: a worker with either is listed.
	type servingFP struct {
		golden   []goldenAnswer
		profiled bool
		anchor   *truth.Stats
		answered []int
		listed   bool
	}
	serving, slab := make([]servingFP, len(names)), *s.workers.Load()
	for h, ws := range slab[:min(len(names), len(slab))] {
		ws.mu.Lock()
		if len(ws.golden) > 0 || ws.profiled || ws.anchor != nil {
			serving[h] = servingFP{golden: slices.Clone(ws.golden), profiled: ws.profiled, listed: true}
			if ws.anchor != nil {
				serving[h].anchor = ws.anchor.Clone()
			}
		}
		ws.mu.Unlock()
	}
	for i := range log.Len() {
		fp := &serving[log.Worker[i]]
		fp.answered, fp.listed = append(fp.answered, ids[log.Task[i]]), true
	}
	order := byName(names)

	// The golden answers of each worker with any, keyed by their name, and
	// again under name+"+profiled" once they are profiled.
	b.WriteString(";golden:")
	type goldenKey struct {
		key string
		h   int32
	}
	var keys []goldenKey
	for _, h := range order {
		if len(serving[h].golden) > 0 {
			keys = append(keys, goldenKey{names[h], h})
		}
		if serving[h].profiled {
			keys = append(keys, goldenKey{names[h] + "+profiled", h})
		}
	}
	slices.SortStableFunc(keys, func(a, b goldenKey) int { return strings.Compare(a.key, b.key) })
	for _, k := range keys {
		fmt.Fprintf(&b, "%s(", k.key)
		for _, a := range serving[k.h].golden {
			fmt.Fprintf(&b, "%d/%d,", ids[a.p], a.choice)
		}
		b.WriteString(")")
	}

	b.WriteString(";workerstats:")
	for _, w := range s.inc.Workers() {
		st := s.inc.Worker(w)
		fmt.Fprintf(&b, "%s:q", w)
		for _, q := range st.Q {
			bits(q)
		}
		b.WriteString("u")
		for _, u := range st.U {
			bits(u)
		}
		b.WriteString(";")
	}

	// Worker-store-visible serving state: the pinned profile anchors (the
	// exact store bits each worker's rerun initialization uses) and the
	// answered sets, for every worker with serving state or an answer.
	// Included so EVERY crash suite — not just the dedicated
	// live-vs-recovered one — fails loudly on a future profile divergence.
	b.WriteString(";anchors:")
	for _, h := range order {
		if a := serving[h].anchor; a != nil {
			fmt.Fprintf(&b, "%s:q", names[h])
			for _, q := range a.Q {
				bits(q)
			}
			b.WriteString("u")
			for _, u := range a.U {
				bits(u)
			}
			b.WriteString(";")
		}
	}
	b.WriteString(";answered:")
	for _, h := range order {
		if !serving[h].listed {
			continue
		}
		fmt.Fprintf(&b, "%s(", names[h])
		sort.Ints(serving[h].answered)
		for _, id := range serving[h].answered {
			fmt.Fprintf(&b, "%d,", id)
		}
		b.WriteString(")")
	}

	b.WriteString(";store:")
	for _, w := range s.store.Workers() {
		st, _ := s.store.Worker(w)
		fmt.Fprintf(&b, "%s:q", w)
		for _, q := range st.Q {
			bits(q)
		}
		b.WriteString("u")
		for _, u := range st.U {
			bits(u)
		}
		b.WriteString(";")
	}
	b.WriteString(";profiles:")
	for _, pid := range s.store.ProfileIDs() {
		a, _ := s.store.ProfileAnchor(pid)
		fmt.Fprintf(&b, "%s:q", pid)
		for _, q := range a.Q {
			bits(q)
		}
		b.WriteString("u")
		for _, u := range a.U {
			bits(u)
		}
		b.WriteString(";")
	}
	return b.String()
}

// DiffFingerprints renders a human-readable bit-level diff of two
// fingerprints: the first maxSegments ";"-separated segments that differ,
// each shown as got/want. The crash suites attach it to failures (and CI
// uploads it as an artifact) so a divergence report names the exact
// drifting component — a worker's q/u bits, a view's S entry — instead of
// two multi-megabyte strings.
func DiffFingerprints(got, want string, maxSegments int) string {
	if got == want {
		return ""
	}
	if maxSegments <= 0 {
		maxSegments = 16
	}
	gs := strings.Split(got, ";")
	ws := strings.Split(want, ";")
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprints differ: %d vs %d segments\n", len(gs), len(ws))
	n := len(gs)
	if len(ws) > n {
		n = len(ws)
	}
	shown := 0
	for i := 0; i < n && shown < maxSegments; i++ {
		var g, w string
		if i < len(gs) {
			g = gs[i]
		}
		if i < len(ws) {
			w = ws[i]
		}
		if g == w {
			continue
		}
		shown++
		fmt.Fprintf(&b, "segment %d:\n  got:  %s\n  want: %s\n", i, clip(g), clip(w))
	}
	if shown == maxSegments {
		b.WriteString("(further divergent segments elided)\n")
	}
	return b.String()
}

// clip bounds one diff line so a huge segment (the answer log) cannot
// drown the report.
func clip(s string) string {
	const max = 512
	if len(s) <= max {
		return s
	}
	return s[:max] + fmt.Sprintf("… (%d bytes)", len(s))
}
