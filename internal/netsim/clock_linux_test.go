package netsim

import (
	"syscall"
	"testing"
	"time"
)

// TestWheelParksBetweenDeadlines pins what a pending delay costs the
// process: wall time, not a core. A dispatcher that spins out
// sub-millisecond deadlines (kernel sleep granularity is too coarse to
// sleep them) burns a core for as long as any delay is in flight; one
// parked on a timerfd spends a few microseconds per wake-up.
func TestWheelParksBetweenDeadlines(t *testing.T) {
	w := &Wheel{}
	const n = 100
	before := processCPU(t)
	start := time.Now()
	for i := 0; i < n; i++ {
		<-w.After(500 * time.Microsecond)
	}
	wall := time.Since(start)
	if cpu := processCPU(t) - before; cpu > wall/4 {
		t.Fatalf("%d waits of 500µs took %v of wall and %v of process CPU; a parked dispatcher spends almost none", n, wall, cpu)
	}
}

func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
