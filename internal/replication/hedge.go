package replication

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// Hedged issues each RPC to a primary replica and, when the response has
// not arrived within Delay, re-issues it to another replica — the classic
// tail-latency hedge over the replica sets this package's Advise sizes.
// Sparse shards are stateless (Section III-A1), so replicas answer
// identically and duplicated work is the only cost.
//
// Each call is one loop over its attempts (one replica call each), and
// the same five rules hold with or without a HealthTracker:
//
//  1. Issue: the primary first, then the next rotation candidate when
//     the newest attempt fails (a failover) or has been silent for Delay
//     (a hedge). The rotation tries health-filtered replicas first, then
//     the rest, never an already-tried one.
//  2. Answer: the first success from any attempt answers the call.
//  3. Book: every outcome goes to the tracker. An attempt is struck (one
//     failure) once it has been silent for 2×Delay since its issue, or
//     when a later-issued attempt succeeds while it is still silent — a
//     hung server returns no error to count. A struck attempt that later
//     succeeds still books the success.
//  4. Give up: with no candidate left, the call returns the primary's
//     error once every attempt has failed, and a timeout once the newest
//     attempt has been silent for 4×Delay. When the newest has failed
//     while an older attempt is still out, that attempt gets 16×Delay
//     from the newest issue — the primary's own error outranks a
//     timeout. Only a one-replica set never finds a second candidate,
//     and its calls go straight to that replica, waiting on it as an
//     unreplicated caller does.
//  5. With Delay <= 0 there is no hedge, no strike and no timeout.
//
// Hedged implements rpc.Caller, so the engine's RPC operators hedge
// without knowing: cluster wiring hands the engine a Hedged instead of a
// bare client.
type Hedged struct {
	// Replicas are callers to identical servers; Replicas[0] is the
	// preferred primary.
	Replicas []rpc.Caller
	// Delay is how long an attempt may stay silent before the call
	// hedges; strikes and timeouts are multiples of it. <= 0 disables all
	// three (failover still applies).
	Delay time.Duration
	// Health, when non-nil, ejects repeatedly failing replicas from the
	// rotation (see HealthTracker). Set before the first call, and only
	// with Delay > 0: without it no silence is ever struck.
	Health *HealthTracker

	// Per-replica instruments set by RegisterMetrics (nil without it).
	callNs []*obs.Histogram
	lost   []*obs.Counter

	next             atomic.Uint64 // rotates the hedge/failover target
	hedges           atomic.Int64
	wins             atomic.Int64
	failovers        atomic.Int64
	failoverAttempts atomic.Int64
}

// NewHedged builds a hedged caller; it requires at least one replica.
func NewHedged(replicas []rpc.Caller, delay time.Duration) (*Hedged, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("replication: hedged caller needs at least one replica")
	}
	return &Hedged{Replicas: replicas, Delay: delay}, nil
}

// Hedges reports how many delay-triggered hedge requests were issued.
// Failover re-issues are counted separately (FailoverAttempts): mixing
// them in would inflate the hedge rate the experiments report.
func (h *Hedged) Hedges() int64 { return h.hedges.Load() }

// Wins reports how many delay-triggered hedges answered before the
// primary — the measure of tail latency actually cut. Failover
// successes are counted separately (Failovers), not here.
func (h *Hedged) Wins() int64 { return h.wins.Load() }

// Failovers reports how many calls made at least one failover re-issue
// (an issue triggered by the newest attempt failing outright).
func (h *Hedged) Failovers() int64 { return h.failovers.Load() }

// FailoverAttempts reports how many failover re-issues calls made — ≥
// Failovers, since one call fails over through every untried replica
// until one answers.
func (h *Hedged) FailoverAttempts() int64 { return h.failoverAttempts.Load() }

// HealthSnapshot reports the replica set's breaker state (zero value
// when no tracker is attached).
func (h *Hedged) HealthSnapshot() HealthSnapshot { return h.Health.Snapshot() }

// Go implements rpc.Caller.
func (h *Hedged) Go(req *rpc.Request) *rpc.Call {
	if len(h.Replicas) == 1 {
		return h.Replicas[0].Go(req)
	}
	c := &hedgedCall{h: h, req: req, out: &rpc.Call{Req: req, Done: make(chan struct{})}}
	c.add(h.pickPrimary(), false)
	//lint:allow goroutinelifecycle run waits on its attempts' Done channels through reflect.Select and returns once each has answered or been struck
	go c.run()
	return c.out
}

// pickPrimary returns the first in-rotation replica, preferring the
// configured primary — ejected replicas are not retried on every call,
// they wait for their probation probe.
func (h *Hedged) pickPrimary() int {
	for i := range h.Replicas {
		if h.Health.Allow(i) {
			return i
		}
	}
	// Everything is ejected and no probe due: someone has to take the
	// call.
	return 0
}

// CallSync issues req and blocks for the (possibly hedged) response.
func (h *Hedged) CallSync(req *rpc.Request) (*rpc.Response, error) {
	call := h.Go(req)
	<-call.Done
	return call.Resp, call.Err
}

// report books a call outcome with the health tracker, if any.
func (h *Hedged) report(idx int, ok bool) {
	if ok {
		h.Health.ReportSuccess(idx)
	} else {
		h.Health.ReportFailure(idx)
	}
}

// hedgedCall is one call's state, owned by the goroutine running it.
type hedgedCall struct {
	h        *Hedged
	req      *rpc.Request
	out      *rpc.Call
	atts     []*attempt // in issue order; atts[0] is the primary
	base     uint64     // the call's rotation cursor
	answered bool       // out is done
	drained  bool       // no candidate is left
	failed   bool       // a failover re-issue was made
}

// attempt is one replica call a hedged call issued. Using one call id on
// several connections is safe: pending call tables are per connection.
type attempt struct {
	idx          int
	call         *rpc.Call
	issued       time.Time
	hedge        bool // issued because the newest attempt was silent
	done, struck bool
}

func (c *hedgedCall) add(idx int, hedge bool) {
	c.atts = append(c.atts, &attempt{idx: idx, hedge: hedge, issued: time.Now(), call: c.h.Replicas[idx].Go(c.req)})
}

// run applies the five rules (see Hedged) until out is answered and
// every attempt still out has either answered or been struck, so that a
// probation probe always has its outcome booked.
func (c *hedgedCall) run() {
	d := c.h.Delay
	for {
		now := time.Now()
		var wake time.Time
		// due reports whether at has passed; otherwise at becomes a
		// candidate for the next wake-up. Nothing is due without a delay.
		due := func(at time.Time) bool {
			if d <= 0 {
				return false
			}
			if now.Before(at) {
				if wake.IsZero() || at.Before(wake) {
					wake = at
				}
				return false
			}
			return true
		}
		waiting := 0 // attempts out that may still answer or be struck
		for _, a := range c.atts {
			if a.done {
				continue
			}
			if !a.struck && due(a.issued.Add(2*d)) {
				c.strike(a)
			}
			if !c.answered || !a.struck {
				waiting++
			}
		}
		if newest := c.atts[len(c.atts)-1]; !c.answered {
			limit := 4 * d
			if newest.done {
				limit = 16 * d
			}
			switch {
			case !newest.done && !c.drained && due(newest.issued.Add(d)):
				c.issue(true)
				continue
			case c.drained && waiting == 0:
				c.finish(c.atts[0].call.Resp, c.atts[0].call.Err)
			case c.drained && due(newest.issued.Add(limit)):
				c.finish(nil, fmt.Errorf("replication: no replica answered within %v of the last attempt", limit))
				continue // every attempt still out is struck by now
			}
		}
		if waiting == 0 {
			for _, a := range c.atts {
				if !a.done && c.h.lost != nil {
					c.h.lost[a.idx].Inc()
				}
			}
			return
		}
		if a := c.await(wake); a != nil {
			c.settle(a)
		}
	}
}

// issue re-issues the call to the next candidate — the rotation walk
// from the call's cursor, health-filtered first, then unfiltered, never
// an already-tried replica — or marks the call drained. The
// unfiltered pass exists because health only steers routing: it must
// never be the reason a request fails while a suspect replica might
// still answer.
func (c *hedgedCall) issue(hedge bool) {
	h := c.h
	if len(c.atts) == 1 {
		// One shared-cursor read per call, walked on locally: concurrent
		// calls cannot interleave increments and revisit a dead replica.
		c.base = h.next.Add(1)
	}
	n := uint64(len(h.Replicas))
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < n; a++ {
			// Reduce in uint64 space: a cursor past MaxInt64 converted
			// first would go negative.
			idx := int((c.base + a) % n)
			if c.tried(idx) || pass == 0 && !h.Health.Allow(idx) {
				continue
			}
			if hedge {
				h.hedges.Add(1)
			} else {
				h.failoverAttempts.Add(1)
				if !c.failed {
					c.failed = true
					h.failovers.Add(1)
				}
			}
			c.add(idx, hedge)
			return
		}
	}
	c.drained = true
}

func (c *hedgedCall) tried(idx int) bool {
	for _, a := range c.atts {
		if a.idx == idx {
			return true
		}
	}
	return false
}

// await blocks until an attempt still out completes, returning it, or
// until wake passes (nil). It is the only wait on a replica call: the
// set of attempts grows as the call runs, so the select is built here.
func (c *hedgedCall) await(wake time.Time) *attempt {
	var live []*attempt
	var cases []reflect.SelectCase
	for _, a := range c.atts {
		if !a.done {
			live = append(live, a)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(a.call.Done)})
		}
	}
	if !wake.IsZero() {
		timer := netsim.After(time.Until(wake))
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer)})
	}
	i, _, _ := reflect.Select(cases)
	if i == len(live) {
		return nil
	}
	live[i].done = true
	return live[i]
}

// settle books a completed attempt: its latency; a failure of the
// newest attempt fails over; a success answers the call (if nothing has
// yet) and strikes every earlier attempt still silent.
func (c *hedgedCall) settle(a *attempt) {
	if c.h.callNs != nil {
		c.h.callNs[a.idx].Observe(int64(time.Since(a.issued)))
	}
	if a.call.Err != nil {
		if !a.struck { // a struck attempt's failure is already booked
			c.h.report(a.idx, false)
		}
		if !c.answered && a == c.atts[len(c.atts)-1] {
			c.issue(false)
		}
		return
	}
	c.h.report(a.idx, true)
	for _, b := range c.atts {
		if b == a {
			break
		}
		if !b.done && !b.struck {
			c.strike(b)
		}
	}
	if !c.answered {
		if a.hedge && !c.atts[0].done {
			c.h.wins.Add(1)
		}
		c.finish(a.call.Resp, nil)
	}
}

func (c *hedgedCall) strike(a *attempt) {
	a.struck = true
	c.h.report(a.idx, false)
}

func (c *hedgedCall) finish(resp *rpc.Response, err error) {
	c.answered = true
	c.out.Resp, c.out.Err = resp, err
	close(c.out.Done)
}

// Close implements rpc.Caller, closing every replica connection.
func (h *Hedged) Close() error {
	var firstErr error
	for _, r := range h.Replicas {
		if err := r.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var _ rpc.Caller = (*Hedged)(nil)
