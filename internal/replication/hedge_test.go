package replication

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// fakeCaller completes calls after a fixed delay, tagging responses so
// tests can see which replica answered.
type fakeCaller struct {
	tag   byte
	delay time.Duration
	err   error
	calls atomic.Int64
}

func (f *fakeCaller) Go(req *rpc.Request) *rpc.Call {
	f.calls.Add(1)
	call := &rpc.Call{Req: req, Done: make(chan struct{})}
	go func() {
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		if f.err != nil {
			call.Err = f.err
		} else {
			call.Resp = &rpc.Response{CallID: req.CallID, Body: []byte{f.tag}}
		}
		close(call.Done)
	}()
	return call
}

func (f *fakeCaller) Close() error { return nil }

func hedged(t *testing.T, delay time.Duration, replicas ...rpc.Caller) *Hedged {
	t.Helper()
	h, err := NewHedged(replicas, delay)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHedgeFastPrimaryNoHedge(t *testing.T) {
	primary := &fakeCaller{tag: 1}
	replica := &fakeCaller{tag: 2}
	h := hedged(t, 50*time.Millisecond, primary, replica)
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 1 {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	if h.Hedges() != 0 || replica.calls.Load() != 0 {
		t.Errorf("fast primary must not hedge (hedges=%d)", h.Hedges())
	}
}

func TestHedgeCutsSlowPrimary(t *testing.T) {
	primary := &fakeCaller{tag: 1, delay: 100 * time.Millisecond}
	replica := &fakeCaller{tag: 2}
	h := hedged(t, 5*time.Millisecond, primary, replica)
	start := time.Now()
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 2 {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Errorf("hedged call took %v; the replica should have answered first", elapsed)
	}
	if h.Hedges() != 1 || h.Wins() != 1 {
		t.Errorf("hedges = %d wins = %d, want 1/1", h.Hedges(), h.Wins())
	}
}

func TestHedgeFailsOverImmediately(t *testing.T) {
	primary := &fakeCaller{tag: 1, err: errors.New("shard down")}
	replica := &fakeCaller{tag: 2}
	// Delay far beyond the test: only failover can reach the replica.
	h := hedged(t, time.Hour, primary, replica)
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 2 {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	// Counter-semantics regression: a failover re-issue is not a hedge —
	// counting it under Hedges() inflated the hedge rate the experiments
	// report.
	if h.Hedges() != 0 {
		t.Errorf("hedges = %d, want 0 (failover must not count as hedging)", h.Hedges())
	}
	if h.Failovers() != 1 || h.FailoverAttempts() != 1 {
		t.Errorf("failovers = %d attempts = %d, want 1/1", h.Failovers(), h.FailoverAttempts())
	}
}

func TestHedgeSurfacesPrimaryErrorWhenAllFail(t *testing.T) {
	primErr := errors.New("primary down")
	primary := &fakeCaller{tag: 1, delay: 10 * time.Millisecond, err: primErr}
	replica := &fakeCaller{tag: 2, err: errors.New("replica down")}
	h := hedged(t, time.Millisecond, primary, replica)
	_, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if !errors.Is(err, primErr) {
		t.Fatalf("err = %v, want primary's", err)
	}
}

func TestHedgeSingleReplicaPassthrough(t *testing.T) {
	primary := &fakeCaller{tag: 1, delay: time.Millisecond}
	h := hedged(t, time.Microsecond, primary)
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 1 {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
	if h.Hedges() != 0 {
		t.Errorf("single replica cannot hedge")
	}
}

func TestNewHedgedRejectsEmpty(t *testing.T) {
	if _, err := NewHedged(nil, time.Millisecond); err == nil {
		t.Fatal("empty replica set must be rejected")
	}
}

// TestFailoverSurfacesPrimaryError is the failover-path regression: when
// the primary fails outright and the failover replica also fails, the
// caller must see the primary's error (matching the documented
// primary-error-wins contract of the race path), not the replica's.
func TestFailoverSurfacesPrimaryError(t *testing.T) {
	primErr := errors.New("primary down")
	primary := &fakeCaller{tag: 1, err: primErr}
	replica := &fakeCaller{tag: 2, err: errors.New("replica down")}
	// Delay far beyond the test: only the immediate failover path runs.
	h := hedged(t, time.Hour, primary, replica)
	_, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if !errors.Is(err, primErr) {
		t.Fatalf("err = %v, want primary's", err)
	}
	if h.Failovers() != 1 {
		t.Errorf("failovers = %d, want 1", h.Failovers())
	}
}

// TestFailoverRotatesThroughReplicas: with >2 replicas, a failover whose
// first target also fails must try the remaining replicas before giving
// up.
func TestFailoverRotatesThroughReplicas(t *testing.T) {
	// Pin the rotation so the walk visits r2, r3, then r1: only the
	// last-visited replica is healthy, so success requires visiting every
	// remaining replica.
	primary := &fakeCaller{tag: 1, err: errors.New("primary down")}
	r1 := &fakeCaller{tag: 2}
	r2 := &fakeCaller{tag: 3, err: errors.New("replica 2 down")}
	r3 := &fakeCaller{tag: 4, err: errors.New("replica 3 down")}
	h := hedged(t, time.Hour, primary, r1, r2, r3)
	h.next.Store(1) // failover walk starts at index 2
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 2 {
		t.Fatalf("resp = %+v, %v; want replica 2's answer", resp, err)
	}
	if r1.calls.Load() != 1 || r2.calls.Load() != 1 || r3.calls.Load() != 1 {
		t.Errorf("rotation calls = %d/%d/%d, want 1/1/1",
			r1.calls.Load(), r2.calls.Load(), r3.calls.Load())
	}
	// All replicas failing still surfaces the primary's error.
	primErr := errors.New("primary down")
	allDown := hedged(t, time.Hour,
		&fakeCaller{tag: 1, err: primErr},
		&fakeCaller{tag: 2, err: errors.New("r down")},
		&fakeCaller{tag: 3, err: errors.New("r down")})
	if _, err := allDown.CallSync(&rpc.Request{Method: "m", CallID: 8}); !errors.Is(err, primErr) {
		t.Fatalf("err = %v, want primary's", err)
	}
}

// TestFailoverRotationUnderConcurrency: concurrent failovers must each
// visit every remaining replica once — a shared-counter walk would let
// interleaved increments pin one call onto the same dead replica twice
// and fail a request a healthy replica could have served.
func TestFailoverRotationUnderConcurrency(t *testing.T) {
	primary := &fakeCaller{tag: 1, err: errors.New("primary down")}
	dead := &fakeCaller{tag: 2, err: errors.New("replica down")}
	healthy := &fakeCaller{tag: 3}
	h := hedged(t, time.Hour, primary, dead, healthy)
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: uint64(100 + i)})
			if err != nil {
				errs[i] = err
				return
			}
			if resp.Body[0] != 3 {
				errs[i] = errors.New("answered by a dead caller")
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v (rotation skipped the healthy replica)", i, err)
		}
	}
}

// TestHedgeRotationIndexOverflow is the uint64→int regression: a
// rotation counter past MaxInt64 must still index a replica (the old
// conversion-then-modulo went negative — out-of-range panic, or a
// "hedge" sent back to the failed primary).
func TestHedgeRotationIndexOverflow(t *testing.T) {
	primary := &fakeCaller{tag: 1, err: errors.New("primary down")}
	replicas := []rpc.Caller{primary,
		&fakeCaller{tag: 2}, &fakeCaller{tag: 3}, &fakeCaller{tag: 4}}
	h := hedged(t, time.Hour, replicas...)
	h.next.Store(^uint64(0) - 8) // a few increments from wraparound
	for i := 0; i < 20; i++ {
		resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: uint64(10 + i)})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Body[0] == 1 {
			t.Fatalf("call %d answered by the failed primary: rotation indexed replica 0", i)
		}
	}
	if primary.calls.Load() != 20 {
		t.Errorf("primary calls = %d, want 20", primary.calls.Load())
	}
}

// TestRaceFailoverContinuesThroughReplicas is the delay-race regression:
// when the hedge timer fires and *both* the primary and the hedge
// replica fail, the race path must keep rotating through the untried
// replicas (as the immediate-failover path does) instead of surfacing
// the primary's error with a healthy replica left unasked.
func TestRaceFailoverContinuesThroughReplicas(t *testing.T) {
	// Primary errors slowly so the hedge timer fires first; the rotation
	// is pinned so the hedge lands on the dead replica and only the
	// failover continuation can reach the healthy one.
	primary := &fakeCaller{tag: 1, delay: 20 * time.Millisecond, err: errors.New("primary down")}
	dead := &fakeCaller{tag: 2, err: errors.New("replica down")}
	healthy := &fakeCaller{tag: 3}
	h := hedged(t, 2*time.Millisecond, primary, dead, healthy)
	h.next.Store(0) // first hedge candidate after the bump is index 1 (dead)
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 3 {
		t.Fatalf("resp = %+v, %v; want the healthy replica's answer", resp, err)
	}
	if dead.calls.Load() != 1 || healthy.calls.Load() != 1 {
		t.Errorf("calls dead=%d healthy=%d, want 1/1", dead.calls.Load(), healthy.calls.Load())
	}
	if h.Hedges() != 1 {
		t.Errorf("hedges = %d, want 1 (the delay-triggered hedge only)", h.Hedges())
	}
	if h.FailoverAttempts() == 0 {
		t.Error("failover continuation never ran")
	}
}

// TestRaceFailoverPrimaryErrorMidRace covers the sibling ordering: the
// primary's error arrives while the hedge is still racing, the hedge
// then fails too, and the walk must still reach the remaining replica.
func TestRaceFailoverPrimaryErrorMidRace(t *testing.T) {
	primary := &fakeCaller{tag: 1, delay: 5 * time.Millisecond, err: errors.New("primary down")}
	dead := &fakeCaller{tag: 2, delay: 30 * time.Millisecond, err: errors.New("replica down")}
	healthy := &fakeCaller{tag: 3}
	h := hedged(t, 2*time.Millisecond, primary, dead, healthy)
	h.next.Store(0) // hedge lands on the dead replica
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
	if err != nil || resp.Body[0] != 3 {
		t.Fatalf("resp = %+v, %v; want the healthy replica's answer", resp, err)
	}
}

// TestRaceFailoverAllFailSurfacesPrimary: the race-path continuation
// keeps the primary-error-wins contract when every replica fails.
func TestRaceFailoverAllFailSurfacesPrimary(t *testing.T) {
	primErr := errors.New("primary down")
	primary := &fakeCaller{tag: 1, delay: 8 * time.Millisecond, err: primErr}
	h := hedged(t, time.Millisecond, primary,
		&fakeCaller{tag: 2, err: errors.New("r down")},
		&fakeCaller{tag: 3, err: errors.New("r down")})
	if _, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7}); !errors.Is(err, primErr) {
		t.Fatalf("err = %v, want primary's", err)
	}
}

// TestHealthEjectsFailingPrimary: with a tracker attached, a primary
// that fails FailThreshold calls in a row leaves the rotation — later
// calls go straight to the healthy replica instead of re-trying the
// dead one every time.
func TestHealthEjectsFailingPrimary(t *testing.T) {
	primary := &fakeCaller{tag: 1, err: errors.New("shard down")}
	replica := &fakeCaller{tag: 2}
	h := hedged(t, time.Hour, primary, replica)
	h.Health = NewHealthTracker(2, HealthConfig{FailThreshold: 2, ProbeEvery: time.Hour})
	for i := 0; i < 10; i++ {
		resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: uint64(i + 1)})
		if err != nil || resp.Body[0] != 2 {
			t.Fatalf("call %d: resp = %+v, %v", i, resp, err)
		}
	}
	if got := primary.calls.Load(); got != 2 {
		t.Errorf("dead primary called %d times, want 2 (then ejected)", got)
	}
	snap := h.HealthSnapshot()
	if snap.Ejected != 1 || snap.Replicas[0].State != ReplicaEjected {
		t.Errorf("snapshot = %+v, want primary ejected", snap)
	}
	if snap.Replicas[1].State != ReplicaHealthy {
		t.Errorf("replica 1 state = %s", snap.Replicas[1].State)
	}
}

// TestHealthSlowStrikeEjectsHungPrimary: a hung (unresponsive, not
// erroring) primary is ejected via hedge-win strikes, and once ejected
// the calls stop paying the hedge delay.
func TestHealthSlowStrikeEjectsHungPrimary(t *testing.T) {
	replica := &fakeCaller{tag: 2}
	h := hedged(t, 4*time.Millisecond, Unresponsive(), replica)
	h.Health = NewHealthTracker(2, HealthConfig{FailThreshold: 2, ProbeEvery: time.Hour})
	for i := 0; i < 2; i++ { // strike calls: each pays the hedge delay
		start := time.Now()
		resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: uint64(i + 1)})
		if err != nil || resp.Body[0] != 2 {
			t.Fatalf("strike call %d: resp = %+v, %v", i, resp, err)
		}
		if time.Since(start) < 4*time.Millisecond {
			t.Fatalf("strike call %d returned before the hedge delay", i)
		}
	}
	if snap := h.HealthSnapshot(); snap.Ejected != 1 {
		t.Fatalf("hung primary not ejected after %d strikes: %+v", 2, snap)
	}
	start := time.Now()
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 99})
	if err != nil || resp.Body[0] != 2 {
		t.Fatalf("post-ejection resp = %+v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Millisecond {
		t.Errorf("post-ejection call took %v; ejection should skip the dead primary", elapsed)
	}
}

// TestHealthProbeRecovery: an ejected replica whose server comes back
// (the Slot swaps in a live caller) is re-admitted by a probation probe
// after the probe interval.
func TestHealthProbeRecovery(t *testing.T) {
	slot := NewSlot(Unresponsive())
	replica := &fakeCaller{tag: 2}
	h := hedged(t, 3*time.Millisecond, slot, replica)
	h.Health = NewHealthTracker(2, HealthConfig{FailThreshold: 1, ProbeEvery: 20 * time.Millisecond})
	if _, err := h.CallSync(&rpc.Request{Method: "m", CallID: 1}); err != nil {
		t.Fatal(err)
	}
	if snap := h.HealthSnapshot(); snap.Ejected != 1 {
		t.Fatalf("primary not ejected: %+v", snap)
	}

	// Server comes back; the next probe should discover it.
	old := slot.Swap(&fakeCaller{tag: 1})
	old.Close()
	time.Sleep(25 * time.Millisecond)
	resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 2})
	if err != nil || resp.Body[0] != 1 {
		t.Fatalf("probe call resp = %+v, %v; want the recovered primary", resp, err)
	}
	snap := h.HealthSnapshot()
	if snap.Ejected != 0 || snap.Replicas[0].Recoveries != 1 || snap.Replicas[0].Probes == 0 {
		t.Errorf("post-recovery snapshot = %+v", snap)
	}
}

// TestHealthFailedProbeReArms: a probe against a still-dead replica
// keeps it ejected and re-arms the probe timer — at most one probe per
// interval pays the discovery cost.
func TestHealthFailedProbeReArms(t *testing.T) {
	tr := NewHealthTracker(1, HealthConfig{FailThreshold: 1, ProbeEvery: 15 * time.Millisecond})
	tr.ReportFailure(0)
	if tr.Healthy(0) || tr.Allow(0) {
		t.Fatal("replica must be ejected with no probe due")
	}
	time.Sleep(18 * time.Millisecond)
	if !tr.Allow(0) {
		t.Fatal("probe due, Allow must grant it")
	}
	if tr.Allow(0) {
		t.Fatal("second caller must not get a probe while one is in flight")
	}
	tr.ReportFailure(0) // probe failed
	if tr.Allow(0) {
		t.Fatal("failed probe must re-arm the interval, not re-probe immediately")
	}
	time.Sleep(18 * time.Millisecond)
	if !tr.Allow(0) {
		t.Fatal("next interval's probe must be granted")
	}
	tr.ReportSuccess(0)
	if !tr.Healthy(0) {
		t.Fatal("successful probe must close the breaker")
	}
}

// BenchmarkHealthTracker measures the healthy-path overhead Hedged adds
// per call when a tracker is attached (one Allow + one ReportSuccess).
func BenchmarkHealthTracker(b *testing.B) {
	tr := NewHealthTracker(3, HealthConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !tr.Allow(i % 3) {
			b.Fatal("healthy replica disallowed")
		}
		tr.ReportSuccess(i % 3)
	}
}

// TestSilentSetTimesOut: a replica set that never answers must end the
// call with an error in bounded time, whether or not a health tracker is
// attached — a request that parks forever is neither a score, a shed nor
// a fallback.
func TestSilentSetTimesOut(t *testing.T) {
	const delay = 2 * time.Millisecond
	for _, tracked := range []bool{false, true} {
		h := hedged(t, delay, Unresponsive(), Unresponsive())
		if tracked {
			h.Health = NewHealthTracker(2, HealthConfig{})
		}
		start := time.Now()
		call := h.Go(&rpc.Request{Method: "m", CallID: 7})
		// 10×Delay is the contract; the rest is slack for a loaded host.
		select {
		case <-call.Done:
		case <-time.After(10*delay + 200*time.Millisecond):
			t.Fatalf("tracker=%v: call still parked after %v", tracked, time.Since(start))
		}
		if call.Err == nil {
			t.Fatalf("tracker=%v: a silent set answered: %+v", tracked, call.Resp)
		}
		if elapsed := time.Since(start); elapsed > 10*delay+50*time.Millisecond {
			t.Errorf("tracker=%v: timed out after %v, want within %v", tracked, elapsed, 10*delay)
		}
	}
}

var (
	errPrimary = errors.New("primary down")
	errReplica = errors.New("replica down")
)

// errKind names an outcome for the ordering table.
func errKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errPrimary):
		return "primary"
	case errors.Is(err, errReplica):
		return "replica"
	}
	return "timeout"
}

// TestHedgeEventOrders pins one hedged call per event order: which
// replica answers, with what error, the four counters, and every
// replica's booked successes and failures. Every scripted event sits at
// least Delay/4 from the next, so the order is fixed on a loaded host.
// Rows whose values differ from the caller the attempt loop replaced
// (seven wait paths, strikes and bounds that only ran with a tracker)
// say which rule of the loop (see Hedged) changes them, and what the
// old values were.
func TestHedgeEventOrders(t *testing.T) {
	const d = 60 * time.Millisecond
	at := func(m float64) time.Duration { return time.Duration(m * float64(d)) }
	ok := func(tag byte, m float64) rpc.Caller { return &fakeCaller{tag: tag, delay: at(m)} }
	fail := func(tag byte, m float64, err error) rpc.Caller {
		return &fakeCaller{tag: tag, delay: at(m), err: err}
	}
	rows := []struct {
		name                              string
		replicas                          []rpc.Caller
		setup                             func(h *Hedged)
		tag                               byte   // answering replica, 0 when the call errs
		err                               string // errKind of the call's error
		hedges, wins, failovers, attempts int64
		succ, fails                       []int64
	}{
		{name: "fast primary",
			replicas: []rpc.Caller{ok(1, 0), ok(2, 0)},
			tag:      1, succ: []int64{1, 0}, fails: []int64{0, 0}},
		{name: "slow primary beaten by the hedge",
			replicas: []rpc.Caller{ok(1, 3), ok(2, 0)},
			tag:      2, hedges: 1, wins: 1, succ: []int64{0, 1}, fails: []int64{1, 0}},
		{name: "prompt primary failure",
			replicas: []rpc.Caller{fail(1, 0, errPrimary), ok(2, 0)},
			tag:      2, failovers: 1, attempts: 1, succ: []int64{0, 1}, fails: []int64{1, 0}},
		// Rule 1: only the newest attempt's failure re-issues, so the
		// primary failing mid-race makes no failover (was failovers=1).
		{name: "primary failure mid-race",
			replicas: []rpc.Caller{fail(1, 1.25, errPrimary), ok(2, 0.5)},
			tag:      2, hedges: 1, succ: []int64{0, 1}, fails: []int64{1, 0}},
		// Rule 1: the hedge's failure finds no candidate, so nothing is
		// re-issued and no failover is counted (was failovers=1).
		{name: "hedge failure mid-race",
			replicas: []rpc.Caller{ok(1, 1.5), fail(2, 0.25, errReplica)},
			tag:      1, hedges: 1, succ: []int64{1, 0}, fails: []int64{0, 1}},
		// Rules 3 and 4: each racer is struck 2×Delay after its own issue
		// and the call times out 4×Delay after the hedge, at 5×Delay
		// (was both struck at 3×Delay, counted as a failover with nothing
		// to issue — failovers=1 — and a timeout at 7×Delay).
		{name: "both racers silent",
			replicas: []rpc.Caller{Unresponsive(), Unresponsive()},
			err:      "timeout", hedges: 1, succ: []int64{0, 0}, fails: []int64{1, 1}},
		// Rule 1: the silent hedge is itself hedged after Delay, a second
		// hedge, which answers at 2×Delay and wins; rule 3 strikes the
		// primary and the first hedge, still silent (was answered by the
		// primary at 2.5×Delay: tag=1 hedges=1 wins=0 succ=[1 0 0]
		// fails=[0 1 0]).
		{name: "three replicas with a silent hedge",
			replicas: []rpc.Caller{ok(1, 2.5), Unresponsive(), ok(3, 0)},
			setup:    func(h *Hedged) { h.next.Store(0) }, // the hedge lands on the silent replica
			tag:      3, hedges: 2, wins: 1, succ: []int64{0, 0, 1}, fails: []int64{1, 1, 0}},
		{name: "probation probe issued as a hedge",
			replicas: []rpc.Caller{ok(1, 1.25), ok(2, 1.5)},
			setup: func(h *Hedged) {
				h.Health = NewHealthTracker(2, HealthConfig{FailThreshold: 1, ProbeEvery: time.Nanosecond})
				h.Health.ReportFailure(1) // ejected, its probe due at once
			},
			// Rule 3: the probe's strike falls 2×Delay after its own issue
			// (3×Delay), so its answer at 2.5×Delay books a success and the
			// replica recovers (was struck one Delay after the primary
			// answered, at 2.25×Delay: succ=[1 0] fails=[0 2]).
			tag: 1, hedges: 1, succ: []int64{1, 1}, fails: []int64{0, 1}},
		// Rule 1: the silent failover attempt is hedged after Delay and
		// stays out, instead of being struck and abandoned at Delay for
		// a second failover attempt (was hedges=0 attempts=2).
		{name: "silent failover target",
			replicas: []rpc.Caller{fail(1, 0, errPrimary), Unresponsive(), ok(3, 0)},
			setup:    func(h *Hedged) { h.next.Store(0) }, // the failover lands on the silent replica
			tag:      3, hedges: 1, failovers: 1, attempts: 1, succ: []int64{0, 0, 1}, fails: []int64{1, 1, 0}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			h := hedged(t, d, row.replicas...)
			h.Health = NewHealthTracker(len(row.replicas), HealthConfig{})
			if row.setup != nil {
				row.setup(h)
			}
			resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: 7})
			var tag byte
			if err == nil {
				tag = resp.Body[0]
			}
			// Let every booking land: the loop books nothing later than
			// 2×Delay past its last issue, which precedes the answer.
			time.Sleep(3 * d)
			snap := h.HealthSnapshot()
			succ, fails := make([]int64, len(snap.Replicas)), make([]int64, len(snap.Replicas))
			for i, r := range snap.Replicas {
				succ[i], fails[i] = r.Successes, r.Failures
			}
			got := fmt.Sprintf("tag=%d err=%q hedges=%d wins=%d failovers=%d attempts=%d succ=%v fails=%v",
				tag, errKind(err), h.Hedges(), h.Wins(), h.Failovers(), h.FailoverAttempts(), succ, fails)
			want := fmt.Sprintf("tag=%d err=%q hedges=%d wins=%d failovers=%d attempts=%d succ=%v fails=%v",
				row.tag, row.err, row.hedges, row.wins, row.failovers, row.attempts, row.succ, row.fails)
			if got != want {
				t.Errorf("\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestHedgedCallsLeaveNoGoroutines: every goroutine a hedged call starts
// ends within 4×Delay of its answer, against a set whose replicas are
// silent, slow and failing — with and without a health tracker.
func TestHedgedCallsLeaveNoGoroutines(t *testing.T) {
	const delay = 10 * time.Millisecond
	for _, tracked := range []bool{false, true} {
		h := hedged(t, delay, Unresponsive(),
			&fakeCaller{tag: 2, delay: delay * 3 / 2},
			&fakeCaller{tag: 3, err: errReplica})
		if tracked {
			h.Health = NewHealthTracker(3, HealthConfig{})
		}
		if _, err := h.CallSync(&rpc.Request{Method: "m", CallID: 1}); err != nil {
			t.Fatal(err) // warms the timer wheel's dispatcher
		}
		time.Sleep(4 * delay)
		base := runtime.NumGoroutine()

		const calls, workers = 200, 8
		var mu sync.Mutex
		var last time.Time
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < calls; i += workers {
					resp, err := h.CallSync(&rpc.Request{Method: "m", CallID: uint64(i + 2)})
					if err != nil || resp.Body[0] != 2 {
						t.Errorf("tracker=%v call %d: resp = %+v, %v", tracked, i, resp, err)
					}
					mu.Lock()
					last = time.Now()
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		n := runtime.NumGoroutine()
		for deadline := last.Add(4 * delay); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("tracker=%v: %d goroutines 4×Delay after the last answer, %d before the calls", tracked, n, base)
		}
	}
}
