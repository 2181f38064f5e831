package core

import (
	"testing"

	"docs/internal/model"
)

// Seams and oracles for the tests of package core_test, which drive a
// System through internal/registry, an importer of this package.

// ArmPackFault sets s's packer seam: f runs when the packer has packed a
// publication's record, and a non-nil return fails the pack.
func ArmPackFault(s *System, f func() error) { s.packFault = f }

// CountPassReruns makes *n count the reruns that the scratch replica of
// every later snapshot pass of s runs.
func CountPassReruns(s *System, n *int) { s.passRerunFault = func() error { *n++; return nil } }

// SerialRecord is serialRecord: what the serial path logs for tasks.
func SerialRecord(t *testing.T, s *System, tasks []*model.Task) []byte {
	return serialRecord(t, s, tasks)
}

// SettledGoroutines is settledGoroutines.
var SettledGoroutines = settledGoroutines

// Materialised is materialised.
var Materialised = materialised
