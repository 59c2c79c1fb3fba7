package netsim

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdClock is a Linux timerfd opened non-blocking, so os.File hands
// it to the runtime's poller: wait parks the dispatcher goroutine like a
// socket read, and the kernel's hrtimer makes the fd readable at the
// deadline, to the microsecond, without a thread spinning or sleeping on
// its behalf.
type timerfdClock struct {
	// fd is kept beside f because f.Fd() would switch the fd back to
	// blocking mode and take it out of the poller.
	fd  uintptr
	f   *os.File
	buf [8]byte
}

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

// newClock opens a timerfd on CLOCK_MONOTONIC — the clock Go's
// monotonic time reads — and falls back to a runtime timer if the kernel
// refuses one.
func newClock() clock {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerClock()
	}
	return &timerfdClock{fd: fd, f: os.NewFile(fd, "netsim-timerfd")}
}

// arm sets a one-shot expiry d from now, replacing any pending one. A
// zero it_value disarms a timerfd, so a deadline already passed is set
// 1 ns out instead. The fd is the wheel's own and never closed, so the
// call fails only on a bug — and a wheel whose clock is not armed would
// hold every pending delay forever.
func (c *timerfdClock) arm(d time.Duration) {
	spec := itimerspec{value: syscall.NsecToTimespec(max(int64(d), 1))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, c.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("netsim: timerfd_settime: " + errno.Error())
	}
}

// wait reads the expiry count; the read parks in the poller until the fd
// is readable. As with arm, a failure is a bug, and retrying it would
// spin.
func (c *timerfdClock) wait() {
	if _, err := c.f.Read(c.buf[:]); err != nil {
		panic("netsim: timerfd read: " + err.Error())
	}
}
