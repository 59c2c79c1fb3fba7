//go:build !linux

package netsim

// newClock parks on a runtime timer where there is no timerfd.
func newClock() clock { return newTimerClock() }
