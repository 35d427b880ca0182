//go:build race

package durable

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool deliberately drops a quarter of what is Put, so pooled
// scratch is never steady and byte-allocation budgets are not asserted.
const raceEnabled = true
