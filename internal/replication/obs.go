package replication

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// RegisterMetrics exports the hedged caller's counters and its replica
// set's breaker state to reg as snapshot-time probes under prefix
// (e.g. "replication.sparse1."). The serving path is untouched: the
// probes read the same atomics and health snapshot the accessors
// expose, once per registry snapshot.
func (h *Hedged) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.RegisterProbeGroup(func(emit func(string, int64)) {
		emit(prefix+"hedges", h.Hedges())
		emit(prefix+"wins", h.Wins())
		emit(prefix+"failovers", h.Failovers())
		emit(prefix+"failover_attempts", h.FailoverAttempts())
		hs := h.HealthSnapshot()
		emit(prefix+"ejected", int64(hs.Ejected))
		var ejections, recoveries, probes, successes, failures int64
		for _, r := range hs.Replicas {
			ejections += r.Ejections
			recoveries += r.Recoveries
			probes += r.Probes
			successes += r.Successes
			failures += r.Failures
		}
		emit(prefix+"ejections", ejections)
		emit(prefix+"recoveries", recoveries)
		emit(prefix+"probes", probes)
		emit(prefix+"call_successes", successes)
		emit(prefix+"call_failures", failures)
	})
}

// ObserveCaller wraps c so every call's completion latency is folded
// into hist. A call still outstanding after bound is counted into lost
// and abandoned by the observer: failure injection swaps Unresponsive()
// callers into slots, and an observer goroutine parked on a Done that
// never closes would outlive Close (the chaos tests assert goroutine
// settle). Waiting on Done from a side goroutine is safe — completion
// closes the channel, so every waiter wakes.
//
// With a nil hist and lost (a discarding registry) c is returned
// unwrapped, so the uninstrumented path spawns nothing.
func ObserveCaller(c rpc.Caller, hist *obs.Histogram, lost *obs.Counter, bound time.Duration) rpc.Caller {
	if hist == nil && lost == nil {
		return c
	}
	if bound <= 0 {
		bound = time.Second
	}
	return &observedCaller{inner: c, hist: hist, lost: lost, bound: bound}
}

type observedCaller struct {
	inner rpc.Caller
	hist  *obs.Histogram
	lost  *obs.Counter
	bound time.Duration
}

func (o *observedCaller) Go(req *rpc.Request) *rpc.Call {
	call := o.inner.Go(req)
	start := time.Now()
	go func() {
		select {
		case <-call.Done:
			o.hist.Observe(int64(time.Since(start)))
		case <-netsim.After(o.bound):
			o.lost.Inc()
		}
	}()
	return call
}

func (o *observedCaller) Close() error { return o.inner.Close() }

var _ rpc.Caller = (*observedCaller)(nil)
