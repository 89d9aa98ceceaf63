//go:build race

package fed

// raceEnabled reports that the race detector is active: it instruments
// allocations (an append of a make is no longer folded into one growth, so
// slices.Grow allocates a temporary), so allocation-size assertions are
// skipped.
const raceEnabled = true
