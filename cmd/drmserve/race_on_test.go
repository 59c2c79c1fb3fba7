//go:build race

package main

// raceEnabled reports a -race build: the detector's shadow memory
// inflates every role's resident set, so footprint bounds do not hold.
const raceEnabled = true
