//go:build race

package truth

// raceEnabled: the allocation guards skip under the race detector, whose
// instrumentation allocates on its own account.
const raceEnabled = true
