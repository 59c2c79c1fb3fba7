package netsim

import (
	"container/heap"
	"sync"
	"time"
)

// Wheel delivers microsecond-precision delays from one dispatcher
// goroutine that parks between deadlines on a clock the Go runtime's
// poller watches (a timerfd on Linux, see clock_linux.go). The kernel
// wakes the poller at the deadline with hrtimer precision, so a pending
// delay costs wall time and no CPU. The runtime's own timers cannot do
// this: an idle scheduler sleeps in the poller with millisecond
// granularity, which would stretch a 100 µs hop to a millisecond. Due
// events fire inline on the dispatcher in deadline order, FIFO among
// equal deadlines.
type Wheel struct {
	mu     sync.Mutex
	events eventHeap
	seq    uint64
	// armed is the deadline the clock is set to wake the dispatcher at;
	// zero once the dispatcher has woken and found nothing pending.
	armed time.Time
	clock clock
	once  sync.Once
}

// clock is what the dispatcher parks on: arm sets the single pending
// wake-up to d from now, replacing any earlier setting; wait blocks until
// a wake-up has passed. A wake-up may be spurious — the dispatcher
// re-reads the heap after every one.
type clock interface {
	arm(d time.Duration)
	wait()
}

type event struct {
	at time.Time
	// seq totally orders events sharing a deadline: the heap alone
	// treats equal-time events as interchangeable, and simulated NIC
	// completions scheduled for the same instant must fire in the order
	// they were scheduled (FIFO), not in heap-pop order.
	seq uint64
	ch  chan struct{}
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

var defaultWheel = &Wheel{}

// After returns a channel closed once d has elapsed, scheduled on the
// process-wide wheel.
func After(d time.Duration) <-chan struct{} { return defaultWheel.After(d) }

// AfterFunc runs fn once d has elapsed, inline on the process-wide
// wheel's dispatcher. fn must be short (a frame write, a channel send):
// long callbacks delay every later event. Compared with waking a parked
// goroutine, the inline call avoids a scheduler handoff — worth hundreds
// of microseconds under sandboxed kernels — which is exactly the path a
// simulated NIC's transmit completion takes.
func AfterFunc(d time.Duration, fn func()) { defaultWheel.AfterFunc(d, fn) }

// After schedules a delay on this wheel.
func (w *Wheel) After(d time.Duration) <-chan struct{} {
	ch := make(chan struct{})
	if d <= 0 {
		close(ch)
		return ch
	}
	w.schedule(event{at: time.Now().Add(d), ch: ch})
	return ch
}

// AfterFunc schedules fn to run inline on this wheel's dispatcher.
func (w *Wheel) AfterFunc(d time.Duration, fn func()) {
	if d <= 0 {
		fn()
		return
	}
	w.schedule(event{at: time.Now().Add(d), fn: fn})
}

func (w *Wheel) schedule(e event) {
	w.once.Do(func() {
		if w.clock == nil {
			w.clock = newClock()
		}
		go w.loop()
	})
	w.mu.Lock()
	w.seq++
	e.seq = w.seq
	heap.Push(&w.events, e)
	if w.armed.IsZero() || e.at.Before(w.armed) {
		w.arm(e.at)
	}
	w.mu.Unlock()
}

// arm sets the clock to wake the dispatcher at at. Called with w.mu held.
func (w *Wheel) arm(at time.Time) {
	w.armed = at
	w.clock.arm(time.Until(at))
}

// loop is the dispatcher: park until the clock wakes it, take everything
// due, set the clock for the next deadline, then fire what was taken, in
// order, outside the lock — so a callback's frame write cannot deadlock
// against a scheduler inserting new events. A callback that blocks (a
// frame write to a full socket) delays later events; every peer in this
// system keeps a draining read loop, so it does not block for long.
func (w *Wheel) loop() {
	var due []event
	for {
		w.clock.wait()
		w.mu.Lock()
		now := time.Now()
		for len(w.events) > 0 && !w.events[0].at.After(now) {
			due = append(due, heap.Pop(&w.events).(event))
		}
		w.armed = time.Time{}
		if len(w.events) > 0 {
			w.arm(w.events[0].at)
		}
		w.mu.Unlock()
		for _, e := range due {
			if e.fn != nil {
				e.fn()
			} else {
				close(e.ch)
			}
		}
		clear(due)
		due = due[:0]
	}
}

// timerClock parks on a runtime timer: correct everywhere, but an idle
// process oversleeps a sub-millisecond deadline to the poller's
// millisecond tick. It stands in where no kernel timer can be polled.
type timerClock struct{ t *time.Timer }

func newTimerClock() *timerClock {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerClock{t: t}
}

func (c *timerClock) arm(d time.Duration) { c.t.Reset(d) }
func (c *timerClock) wait()               { <-c.t.C }
