package frontend

import (
	"sync"
	"time"
)

// drainGate meters each tenant's share of the fleet's execution
// bandwidth in a co-served deployment: the weighted drain that keeps one
// model's backlog from starving another. Each tenant accrues execution
// credit at its entitlement rate (share × wall time, in seconds of
// executor busy time per second); a dispatcher must wait until its
// tenant's credit is positive before executing a batch, and the batch's
// measured busy time is charged back.
//
// The gate is deliberately NOT work-conserving. A tenant's entitlement
// is its replica allocation: servers holding model A's embedding tables
// cannot answer model B's requests, so capacity idle under one model is
// not fungible to another without a scale event (a snapshot rebuild of
// the tables onto the reclaimed replica) — which is exactly the move the
// elastic scheduler performs. Letting an under-allocated tenant borrow
// idle wall-clock here would erase the very scarcity the scheduler
// exists to manage, and with it the difference between static and
// elastic fleets at equal hardware.
//
// Credit is clamped to a burst ceiling (so an idle tenant cannot bank
// unbounded catch-up time) and to a bounded debt floor (so one
// pathologically long execution cannot stall its tenant forever).
type drainGate struct {
	mu      sync.Mutex
	tenants map[string]*gateTenant
}

// gateTenant is one tenant's credit ledger.
type gateTenant struct {
	share  float64 // entitlement: executor-seconds accrued per second
	credit float64 // nanoseconds of banked execution time (may go negative)
	last   time.Time
}

// gateBurst is the credit ceiling: how much idle entitlement a tenant
// may bank. Tests lower it to keep their waits short.
var gateBurst = 50 * time.Millisecond

// gatePollCap bounds one wait's sleep so share increases (a scale-up
// mid-wait) take effect promptly instead of after a stale long sleep.
const gatePollCap = 5 * time.Millisecond

func newDrainGate() *drainGate {
	return &drainGate{tenants: make(map[string]*gateTenant)}
}

// add registers a tenant at the given share. Credit starts at the burst
// ceiling so a fresh tenant's first batches run unthrottled.
func (g *drainGate) add(name string, share float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tenants[name] = &gateTenant{share: share, credit: float64(gateBurst), last: time.Now()}
}

// setShare re-prices a tenant's entitlement (a scale event). Credit
// accrued so far is settled at the old rate first.
func (g *drainGate) setShare(name string, share float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.tenants[name]
	if t == nil {
		return
	}
	g.refill(t, time.Now())
	t.share = share
}

// refill accrues credit since the last settlement (caller holds mu).
func (g *drainGate) refill(t *gateTenant, now time.Time) {
	if elapsed := now.Sub(t.last); elapsed > 0 {
		t.credit += t.share * float64(elapsed)
		if ceil := float64(gateBurst); t.credit > ceil {
			t.credit = ceil
		}
	}
	t.last = now
}

// delayFor returns how long tenant name must wait before it may execute
// (0 = runnable now), settling its credit as of now. Unknown tenants and
// non-positive shares are unthrottled — the gate fails open.
func (g *drainGate) delayFor(name string, now time.Time) time.Duration {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.tenants[name]
	if t == nil || t.share <= 0 {
		return 0
	}
	g.refill(t, now)
	if t.credit > 0 {
		return 0
	}
	return time.Duration(-t.credit/t.share) + 50*time.Microsecond
}

// wait blocks until tenant name is entitled to execute.
func (g *drainGate) wait(name string) {
	if g == nil {
		return
	}
	for {
		d := g.delayFor(name, time.Now())
		if d <= 0 {
			return
		}
		if d > gatePollCap {
			d = gatePollCap
		}
		time.Sleep(d)
	}
}

// charge debits one execution's busy time against tenant name. Debt is
// floored at four bursts: beyond that a single giant execution would buy
// an open-ended stall rather than fair pacing.
func (g *drainGate) charge(name string, busy time.Duration) {
	if g == nil || busy <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.tenants[name]
	if t == nil {
		return
	}
	g.refill(t, time.Now())
	t.credit -= float64(busy)
	if floor := -4 * float64(gateBurst); t.credit < floor {
		t.credit = floor
	}
}
