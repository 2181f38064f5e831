//go:build !race

package truth

const raceEnabled = false
