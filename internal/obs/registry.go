// Package obs is the unified live-telemetry surface for the serving
// stack: a lock-cheap metrics registry (sharded atomic counters, gauges,
// and streaming log-bucketed latency histograms), snapshot/diff
// extraction with p50/p95/p99 quantiles, and sampled live request
// tracing over the cross-layer span recorder (tracer.go).
//
// The paper's entire argument rests on latency-stack attribution
// (Figs. 8–9); obs makes that attribution available while the system
// runs instead of only from offline span dumps. Design constraints:
//
//   - Hot-path writes are a single atomic add (counters stripe across
//     cache lines to dodge contention; histograms index a bucket from
//     the value's bit length — no floating point, no locks).
//   - Every deployment gets its own Registry: experiments boot many
//     clusters per process, and their metrics must not bleed together.
//   - Reads (Snapshot) are rare and may be mildly inconsistent across
//     metrics — this is telemetry, not accounting.
//
// All metric handles are nil-safe: a nil *Counter/*Gauge/*Histogram
// no-ops on write, and a nil (or Discard()) *Registry hands out nil
// handles — so instrumented code needs no "is telemetry on?" branches
// beyond the nil check the method receiver itself performs.
package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
)

// counterStripes is the number of cache-line-padded cells a Counter
// spreads adds across. Power of two so the stripe pick is a mask.
const counterStripes = 8

// counterCell is one padded stripe: 8 bytes of counter plus padding to
// keep neighboring stripes off the same cache line.
type counterCell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonic counter. Adds stripe across cells keyed by a
// per-thread fast random so concurrent writers rarely share a line.
type Counter struct {
	cells [counterStripes]counterCell
}

// Add increments the counter by n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.cells[rand.Uint32()&(counterStripes-1)].n.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load sums the stripes. Safe on a nil receiver (returns 0).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.cells {
		n += c.cells[i].n.Load()
	}
	return n
}

// Gauge is a last-value (or running-maximum) metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta. Safe on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (CAS loop). Safe on a nil
// receiver.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value. Safe on a nil receiver (returns 0).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns one deployment's metrics, keyed by dotted names
// ("frontend.batches", "sparse1.tier.hits"). Handles are created on
// first reference and live for the registry's lifetime; probes are
// evaluated only at Snapshot time, so pull-style sources (health
// snapshots, tier stats) cost nothing on the serving path.
type Registry struct {
	discard bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	probes   []probeEntry
	groups   []func(emit func(name string, v int64))
}

type probeEntry struct {
	name string
	fn   func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var discardRegistry = &Registry{discard: true}

// Discard returns a registry that hands out nil handles and drops
// probes: the explicit "telemetry off" registry the overhead benchmark's
// baseline arm uses.
func Discard() *Registry { return discardRegistry }

// Discarding reports whether this registry drops everything.
func (r *Registry) Discarding() bool { return r == nil || r.discard }

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil or Discard registry.
func (r *Registry) Counter(name string) *Counter {
	if r.Discarding() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil or Discard registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r.Discarding() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a no-op handle) on a nil or Discard registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r.Discarding() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterProbe adds a pull-style gauge evaluated at Snapshot time.
// No-op on a nil or Discard registry.
func (r *Registry) RegisterProbe(name string, fn func() int64) {
	if r.Discarding() || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes = append(r.probes, probeEntry{name: name, fn: fn})
}

// RegisterProbeGroup adds a pull-style source that emits several gauges
// per Snapshot from one underlying read (one mutex acquisition for a
// whole health or tier snapshot instead of one per metric). No-op on a
// nil or Discard registry.
func (r *Registry) RegisterProbeGroup(fn func(emit func(name string, v int64))) {
	if r.Discarding() || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups = append(r.groups, fn)
}

// sortedNames returns map keys in deterministic order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
