//go:build race

package core

// raceEnabled reports a -race build. The race runtime drops a share of
// sync.Pool puts on purpose and instruments allocations, so allocation
// budgets only hold without it.
const raceEnabled = true
