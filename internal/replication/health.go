package replication

import (
	"sync"
	"time"
)

// HealthTracker is a per-replica circuit breaker for a replica set: a
// replica that fails several calls in a row is ejected from the serving
// rotation (breaker open) instead of being re-tried on every request,
// then re-admitted through probation probes — an occasional real request
// is allowed through (half-open), and one success closes the breaker.
// At scale-out replica counts the probability that *some* replica is
// dead at any moment approaches one, so the rotation must route around
// dead replicas by default and pay the discovery cost only once per
// probe interval.
//
// Failures are whatever the caller reports: prompt transport errors, or
// strikes against a silent replica — one still silent 2×Delay after its
// call was issued, or when a later-issued call answered first (a hung
// server produces no error to count; see Hedged).
type HealthTracker struct {
	cfg HealthConfig
	mu  sync.Mutex
	rs  []replicaHealth
}

// HealthConfig tunes the breaker.
type HealthConfig struct {
	// FailThreshold is how many consecutive failures eject a replica
	// (default 3).
	FailThreshold int
	// ProbeEvery is how often an ejected replica is offered one live
	// request as a probation probe (default 250ms).
	ProbeEvery time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 250 * time.Millisecond
	}
	return c
}

// Breaker states. Half-open is implicit: an open replica whose probe is
// in flight stays ReplicaEjected until the probe reports.
const (
	ReplicaHealthy = "healthy"
	ReplicaEjected = "ejected"
)

// replicaHealth is one replica's breaker state.
type replicaHealth struct {
	consecFails int
	open        bool
	probing     bool // a probation probe is in flight (half-open)
	nextProbe   time.Time
	openedAt    time.Time

	ejections  int64
	probes     int64
	recoveries int64
	successes  int64
	failures   int64
}

// ReplicaHealthStat is one replica's exported health state.
type ReplicaHealthStat struct {
	// State is ReplicaHealthy or ReplicaEjected.
	State string
	// ConsecutiveFails is the current failure streak.
	ConsecutiveFails int
	// Ejections, Probes, Recoveries count breaker transitions over the
	// tracker's lifetime; Successes/Failures count reported outcomes.
	Ejections, Probes, Recoveries int64
	Successes, Failures           int64
	// EjectedFor is how long the replica has been out of rotation (0 when
	// healthy).
	EjectedFor time.Duration
}

// HealthSnapshot is a point-in-time view of a replica set's health.
type HealthSnapshot struct {
	Replicas []ReplicaHealthStat
	// Ejected counts replicas currently out of rotation.
	Ejected int
}

// NewHealthTracker builds a tracker for n replicas, all initially
// healthy.
func NewHealthTracker(n int, cfg HealthConfig) *HealthTracker {
	return &HealthTracker{cfg: cfg.withDefaults(), rs: make([]replicaHealth, n)}
}

// Allow reports whether replica i may serve a request right now. A
// healthy replica always may; an ejected one may only when its probe
// interval has elapsed, in which case exactly one caller is granted the
// probation probe (half-open) and must report the outcome.
func (t *HealthTracker) Allow(i int) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.rs[i]
	if !r.open {
		return true
	}
	if r.probing || time.Now().Before(r.nextProbe) {
		return false
	}
	r.probing = true
	r.probes++
	return true
}

// Healthy reports whether replica i is in rotation, without consuming a
// probe token.
func (t *HealthTracker) Healthy(i int) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.rs[i].open
}

// ReportSuccess books a successful call on replica i: the failure streak
// resets, and an ejected replica (its probe succeeded) recovers into the
// rotation.
func (t *HealthTracker) ReportSuccess(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.rs[i]
	r.successes++
	r.consecFails = 0
	if r.open {
		r.open = false
		r.probing = false
		r.recoveries++
	}
}

// ReportFailure books a failed (or hedged-past) call on replica i: the
// streak grows, crossing the threshold ejects the replica, and a failed
// probe re-arms the next probe interval.
func (t *HealthTracker) ReportFailure(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.rs[i]
	r.failures++
	r.consecFails++
	now := time.Now()
	if r.open {
		// Failed probe: stay open, schedule the next probe.
		r.probing = false
		r.nextProbe = now.Add(t.cfg.ProbeEvery)
		return
	}
	if r.consecFails >= t.cfg.FailThreshold {
		r.open = true
		r.probing = false
		r.openedAt = now
		r.nextProbe = now.Add(t.cfg.ProbeEvery)
		r.ejections++
	}
}

// Snapshot returns the tracker's current state.
func (t *HealthTracker) Snapshot() HealthSnapshot {
	if t == nil {
		return HealthSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := HealthSnapshot{Replicas: make([]ReplicaHealthStat, len(t.rs))}
	now := time.Now()
	for i := range t.rs {
		r := &t.rs[i]
		st := ReplicaHealthStat{
			State:            ReplicaHealthy,
			ConsecutiveFails: r.consecFails,
			Ejections:        r.ejections,
			Probes:           r.probes,
			Recoveries:       r.recoveries,
			Successes:        r.successes,
			Failures:         r.failures,
		}
		if r.open {
			st.State = ReplicaEjected
			st.EjectedFor = now.Sub(r.openedAt)
			out.Ejected++
		}
		out.Replicas[i] = st
	}
	return out
}
