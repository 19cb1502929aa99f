//go:build race

package servable

// raceEnabled: the race detector makes sync.Pool drop a share of its
// Puts, so a decode's pooled element stack is sometimes new and exact
// allocation budgets do not hold under it.
const raceEnabled = true
