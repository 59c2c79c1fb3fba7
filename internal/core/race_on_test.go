//go:build race

package core

// raceEnabled reports a -race build: the detector's instrumentation
// allocates beside the code under test, so byte bounds do not hold.
const raceEnabled = true
