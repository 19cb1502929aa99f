//go:build race

package core_test

// raceEnabled: the race detector makes sync.Pool drop a share of its
// Puts and instruments allocations, so exact allocation budgets do not
// hold under it.
const raceEnabled = true
