package replication

import (
	"fmt"

	"repro/internal/obs"
)

// RegisterMetrics exports the hedged caller's counters and its replica
// set's breaker state to reg as snapshot-time probes under prefix
// (e.g. "replication.sparse1."): the probes read the same atomics and
// health snapshot the accessors expose, once per registry snapshot. Per
// replica N, the call loop books each attempt's latency from issue to
// answer into replicaN.call_ns, and counts into replicaN.lost each
// attempt a call stopped waiting for (struck and never answered). Call
// it before the first call.
func (h *Hedged) RegisterMetrics(reg *obs.Registry, prefix string) {
	h.callNs = make([]*obs.Histogram, len(h.Replicas))
	h.lost = make([]*obs.Counter, len(h.Replicas))
	for r := range h.Replicas {
		h.callNs[r] = reg.Histogram(fmt.Sprintf("%sreplica%d.call_ns", prefix, r))
		h.lost[r] = reg.Counter(fmt.Sprintf("%sreplica%d.lost", prefix, r))
	}
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
