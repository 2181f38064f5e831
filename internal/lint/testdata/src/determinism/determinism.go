// Package determinism exercises the determinism analyzer: clocks, global
// rand and order-escaping map iteration reachable from a
// //docs:deterministic root are findings; collect-then-sort, keyed map
// inserts and loop-local computation are the blessed patterns.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Fingerprint is a determinism root using only blessed patterns: collect
// keys then sort, keyed map inserts, integer counters.
//
//docs:deterministic
func Fingerprint(state map[string]int) string {
	var b strings.Builder
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, state[k])
	}
	doubled := make(map[string]int, len(state))
	n := 0
	for k, v := range state {
		doubled[k] = 2 * v // keyed insert: order-independent
		n++                // integer counter: order-independent
	}
	fmt.Fprintf(&b, "n=%d;d=%d", n, len(doubled))
	return b.String()
}

// BadPrint writes to an outer builder from inside a map range: iteration
// order escapes into the output.
//
//docs:deterministic
func BadPrint(state map[string]int) string {
	var b strings.Builder
	for k, v := range state { // want determinism "range over map"
		fmt.Fprintf(&b, "%s=%d;", k, v)
	}
	return b.String()
}

// BadCollect collects keys but never sorts them.
//
//docs:deterministic
func BadCollect(state map[string]int) []string {
	keys := make([]string, 0, len(state))
	for k := range state { // want determinism "never sorts"
		keys = append(keys, k)
	}
	return keys
}

// BadClock reads the wall clock inside a deterministic path.
//
//docs:deterministic
func BadClock() int64 {
	return time.Now().UnixNano() // want determinism "wall-clock read time.Now"
}

// BadRand draws from the shared global generator.
//
//docs:deterministic
func BadRand() int {
	return rand.Int() // want determinism "global rand.Int"
}

// Root reaches the violation two hops away: the finding names the path.
//
//docs:deterministic
func Root() int { return middle(nil) }

func middle(m map[int]bool) int { return reached(m) }

// reached is dirty but unannotated; it is caught via reachability.
func reached(m map[int]bool) int {
	for k := range m { // want determinism "returns from inside the loop"
		if k > 0 {
			return k
		}
	}
	return 0
}

// unreached has the same shape as reached but no root reaches it: clean.
func unreached(m map[int]bool) int {
	for k := range m {
		if k > 0 {
			return k
		}
	}
	return 0
}

// literal marks a function literal, which is never a root: the directive
// is reported rather than silently checking nothing.
func literal(m map[int]bool) func() int {
	/* want deterministic "not attached to a function" */ //docs:deterministic
	return func() int { return unreached(m) }
}
