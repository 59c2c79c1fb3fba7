package netsim

import (
	"sync"
	"testing"
	"time"
)

// clocks are the two clocks a wheel can park on: the platform's own
// (a timerfd on Linux) and the runtime-timer fallback used elsewhere.
var clocks = []struct {
	name string
	new  func() clock
}{
	{"platform", newClock},
	{"runtime-timer", func() clock { return newTimerClock() }},
}

// TestWheelSameDeadlineFIFO pins the wheel's ordering contract for
// timer callbacks scheduled for the *same* deadline: they must fire in
// scheduling (FIFO) order. The public API stamps each event's deadline
// from time.Now, so same-deadline events can only be built against the
// internal schedule hook — which is exactly where the contract lives:
// the heap's tie-break plus the dispatcher firing in pop order. Run
// under -race this also exercises the scheduler/dispatcher
// synchronization.
func TestWheelSameDeadlineFIFO(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			const n = 200
			w := &Wheel{clock: c.new()}
			at := time.Now().Add(3 * time.Millisecond)

			var mu sync.Mutex
			var order []int
			var wg sync.WaitGroup
			wg.Add(n)
			for i := 0; i < n; i++ {
				i := i
				w.schedule(event{at: at, fn: func() {
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
					wg.Done()
				}})
			}
			wg.Wait()

			mu.Lock()
			defer mu.Unlock()
			if len(order) != n {
				t.Fatalf("fired %d of %d callbacks", len(order), n)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("callback %d fired at position %d; same-deadline events must fire FIFO (order %v...)", got, i, order[:min(i+3, n)])
				}
			}
		})
	}
}

// TestWheelSameDeadlineConcurrentSchedulers hammers one shared deadline
// from many goroutines: every callback must fire exactly once. Under
// -race this exercises the seq counter, heap, and clock arming against
// concurrent schedule calls.
func TestWheelSameDeadlineConcurrentSchedulers(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			const n = 100
			w := &Wheel{clock: c.new()}
			at := time.Now().Add(2 * time.Millisecond)

			var fired sync.WaitGroup
			fired.Add(n)
			for i := 0; i < n; i++ {
				go w.schedule(event{at: at, fn: fired.Done})
			}
			fired.Wait()
		})
	}
}

// TestWheelEarlierDeadlineWakesParkedDispatcher parks the dispatcher on
// a far deadline, then schedules a near one: scheduling must re-arm the
// clock, or the near event waits out the far one.
func TestWheelEarlierDeadlineWakesParkedDispatcher(t *testing.T) {
	for _, c := range clocks {
		t.Run(c.name, func(t *testing.T) {
			w := &Wheel{clock: c.new()}
			far := w.After(time.Second)
			time.Sleep(5 * time.Millisecond) // let the dispatcher park on far
			start := time.Now()
			<-w.After(200 * time.Microsecond)
			if got := time.Since(start); got > 100*time.Millisecond {
				t.Fatalf("near event fired after %v; it waited for the far deadline", got)
			}
			select {
			case <-far:
				t.Fatal("far event fired early")
			default:
			}
		})
	}
}
