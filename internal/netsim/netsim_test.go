package netsim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLinkDelayComposition(t *testing.T) {
	l := NewLink(100*time.Microsecond, 0, 1000, 1) // 1000 B/s
	if d := l.Delay(500); d != 100*time.Microsecond+500*time.Millisecond {
		t.Errorf("Delay = %v", d)
	}
}

func TestLinkJitterBoundedAndDeterministic(t *testing.T) {
	l1 := NewLink(0, 50*time.Microsecond, 0, 9)
	l2 := NewLink(0, 50*time.Microsecond, 0, 9)
	for i := 0; i < 100; i++ {
		d1, d2 := l1.Delay(0), l2.Delay(0)
		if d1 != d2 {
			t.Fatal("same seed must give same jitter stream")
		}
		if d1 < 0 || d1 > 50*time.Microsecond {
			t.Fatalf("jitter %v outside [0, 50µs]", d1)
		}
	}
}

func TestNilLink(t *testing.T) {
	var l *Link
	if l.Delay(100) != 0 {
		t.Error("nil link should have zero delay")
	}
}

func TestWheelWaitAccuracy(t *testing.T) {
	// Precision well under the kernel's ~1.5ms sleep granularity is the
	// wheel's reason to exist.
	for _, d := range []time.Duration{100 * time.Microsecond, 500 * time.Microsecond} {
		start := time.Now()
		<-After(d)
		elapsed := time.Since(start)
		if elapsed < d {
			t.Errorf("After(%v) fired early, after %v", d, elapsed)
		}
		if elapsed > d+800*time.Microsecond {
			t.Errorf("After(%v) overshot to %v", d, elapsed)
		}
	}
}

func TestWheelZeroAndNegative(t *testing.T) {
	<-After(0)
	<-After(-time.Second)
	done := make(chan struct{})
	AfterFunc(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("AfterFunc(0) should run immediately")
	}
}

func TestWheelOrdering(t *testing.T) {
	// Later-scheduled but earlier-deadline events must fire first.
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	AfterFunc(2*time.Millisecond, func() {
		mu.Lock()
		order = append(order, 2)
		mu.Unlock()
		wg.Done()
	})
	AfterFunc(500*time.Microsecond, func() {
		mu.Lock()
		order = append(order, 1)
		mu.Unlock()
		wg.Done()
	})
	wg.Wait()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("firing order = %v, want [1 2]", order)
	}
}

func TestWheelConcurrentLoad(t *testing.T) {
	const n = 500
	var fired atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-After(time.Duration(50+i%200) * time.Microsecond)
			fired.Add(1)
		}(i)
	}
	wg.Wait()
	if fired.Load() != n {
		t.Fatalf("fired %d of %d", fired.Load(), n)
	}
}

func TestProfiles(t *testing.T) {
	dc := DataCenter(1)
	slow := Slow(1)
	if dc.Request == nil || dc.Response == nil {
		t.Fatal("DataCenter profile incomplete")
	}
	if slow.Request.Base <= dc.Request.Base {
		t.Error("Slow should have higher base latency than DataCenter")
	}
	if slow.Request.BytesPerSec >= dc.Request.BytesPerSec {
		t.Error("Slow should have less bandwidth")
	}
}
