//go:build race

package pipeline

// raceEnabled reports a -race build, whose sync.Pool drops a share of its
// Puts on purpose; allocation gates widen their budgets by the pool misses.
const raceEnabled = true
