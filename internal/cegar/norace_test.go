//go:build !race

package cegar

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation gates do not hold under it.
const raceEnabled = false
