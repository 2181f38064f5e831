//go:build race

package httpapi

// raceEnabled: the allocation guard skips under the race detector, whose
// instrumentation allocates on its own account.
const raceEnabled = true
