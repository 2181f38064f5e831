//go:build !race

package dve

const raceEnabled = false
