//go:build race

package dve

// raceEnabled: the allocation guard skips under the race detector, whose
// instrumentation allocates on its own account.
const raceEnabled = true
