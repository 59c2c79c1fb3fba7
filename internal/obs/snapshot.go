package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Snapshot is a point-in-time copy of a registry: counters, gauges
// (probes included), and histogram states. Diff turns two snapshots
// into a window; the text and JSON renderings feed the /metrics
// endpoint, the periodic logger, and the experiment reports.
type Snapshot struct {
	At       time.Time
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistSnapshot
}

// Snapshot captures the registry's current state. Probes and probe
// groups are evaluated here — outside the registry lock, so a probe may
// itself take locks (health trackers, tier stores) without ordering
// hazards against metric creation.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		At:       time.Now(),
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistSnapshot),
	}
	if r.Discarding() {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	probes := append([]probeEntry(nil), r.probes...)
	groups := make([]func(func(string, int64)), len(r.groups))
	copy(groups, r.groups)
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Load()
	}
	for k, h := range hists {
		s.Hists[k] = h.Snapshot()
	}
	for _, p := range probes {
		s.Gauges[p.name] = p.fn()
	}
	emit := func(name string, v int64) { s.Gauges[name] = v }
	for _, g := range groups {
		g(emit)
	}
	return s
}

// Diff returns the window between prev and s: counters and histograms
// subtract (clamped at zero), gauges keep their current values — a
// gauge is a level, not a flow.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		At:       s.At,
		Counters: make(map[string]int64, len(s.Counters)),
		Gauges:   make(map[string]int64, len(s.Gauges)),
		Hists:    make(map[string]HistSnapshot, len(s.Hists)),
	}
	for k, v := range s.Counters {
		d := v - prev.Counters[k]
		if d < 0 {
			d = 0
		}
		out.Counters[k] = d
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, h := range s.Hists {
		cp := HistSnapshot{Counts: append([]int64(nil), h.Counts...), Count: h.Count, Sum: h.Sum}
		if p, ok := prev.Hists[k]; ok {
			cp.Sub(p)
		}
		out.Hists[k] = cp
	}
	return out
}

// Counter returns a counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge or probe value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Hist returns a histogram's snapshot.
func (s Snapshot) Hist(name string) (HistSnapshot, bool) {
	h, ok := s.Hists[name]
	return h, ok
}

// Quantile returns a histogram's q-quantile (0 when absent or empty).
func (s Snapshot) Quantile(name string, q float64) float64 {
	return s.Hists[name].Quantile(q)
}

// WriteText renders the snapshot as sorted plain text, one metric per
// line — the /metrics endpoint and the periodic logger's format.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, k := range sortedNames(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedNames(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	for _, k := range sortedNames(s.Hists) {
		h := s.Hists[k]
		if _, err := fmt.Fprintf(w, "hist %s count=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
			k, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max()); err != nil {
			return err
		}
	}
	return nil
}

// histJSON is the wire form of one histogram in the JSON snapshot.
type histJSON struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// snapshotJSON is the schema of /metrics.json, validated by
// cmd/metricscheck in CI.
type snapshotJSON struct {
	At         string              `json:"at"`
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]histJSON `json:"histograms"`
}

// MarshalJSON implements json.Marshaler with the documented schema:
// {"at": ..., "counters": {...}, "gauges": {...}, "histograms":
// {name: {count, sum, mean, p50, p95, p99, max}}}.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	out := snapshotJSON{
		At:         s.At.Format(time.RFC3339Nano),
		Counters:   s.Counters,
		Gauges:     s.Gauges,
		Histograms: make(map[string]histJSON, len(s.Hists)),
	}
	if out.Counters == nil {
		out.Counters = map[string]int64{}
	}
	if out.Gauges == nil {
		out.Gauges = map[string]int64{}
	}
	for k, h := range s.Hists {
		out.Histograms[k] = histJSON{
			Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99), Max: h.Max(),
		}
	}
	return json.Marshal(out)
}
