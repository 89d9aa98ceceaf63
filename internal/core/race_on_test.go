//go:build race

package core

// raceEnabled reports that the race detector is active: it disables
// sync.Pool reuse and instruments allocations, so alloc-count assertions are
// skipped.
const raceEnabled = true
