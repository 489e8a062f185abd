//go:build !race

package core

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation gates do not hold under it.
const raceEnabled = false
