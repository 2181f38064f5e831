package core

import (
	"testing"

	"docs/internal/assign"
	"docs/internal/model"
)

// Seams and oracles for the tests of package core_test, which drive a
// System through internal/registry, an importer of this package.

// ArmPackFault sets s's packer seam: f runs when the packer has packed a
// publication's record, and a non-nil return fails the pack.
func ArmPackFault(s *System, f func() error) { s.packFault = f }

// ArmAssign runs f where a Request assigns: between a leased request's two
// writer calls, the expiry and listing of the worker's leases before it and
// the grant after it.
func ArmAssign(s *System, f func()) {
	s.assignOracle = func(as *assign.Assigner, w int32, held []int, q model.QualityVector, k, redundancy int) []int {
		f()
		return s.assignIndexed(s.pub.Load().ci, as, w, held, q, k, redundancy)
	}
}

// SerialRecord is serialRecord: what the serial path logs for tasks.
func SerialRecord(t *testing.T, s *System, tasks []*model.Task) []byte {
	return serialRecord(t, s, tasks)
}

// SettledGoroutines is settledGoroutines.
var SettledGoroutines = settledGoroutines
