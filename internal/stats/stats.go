// Package stats provides the statistical primitives used throughout the
// distributed-inference characterization: exact quantiles, streaming
// summaries, histograms, and small helpers for normalizing series the way
// the paper's figures do.
//
// The paper reports P50/P90/P99 latency and compute overheads (Figs. 6, 7,
// 16), normalized latency stacks (Figs. 8, 11, 13), and normalized CPU
// stacks (Figs. 9, 14). Every one of those reductions lives here so the
// experiment drivers stay declarative.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample is an immutable collection of float64 observations with cached
// order statistics. Build one with NewSample; the constructor copies and
// sorts the input once so repeated quantile queries are O(1).
type Sample struct {
	sorted []float64
	sum    float64
}

// NewSample copies xs, sorts the copy, and returns a Sample over it.
// An empty input yields a usable Sample whose queries return 0.
func NewSample(xs []float64) *Sample {
	s := &Sample{sorted: make([]float64, len(xs))}
	copy(s.sorted, xs)
	sort.Float64s(s.sorted)
	for _, x := range s.sorted {
		s.sum += x
	}
	return s
}

// DurationsToSeconds converts a slice of time.Duration to float64 seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// NewDurationSample builds a Sample over durations expressed in seconds.
func NewDurationSample(ds []time.Duration) *Sample {
	return NewSample(DurationsToSeconds(ds))
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.sorted) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sum / float64(len(s.sorted))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks, the same estimator NumPy defaults
// to. Out-of-range q values are clamped.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s.sorted[0]
	}
	if q >= 1 {
		return s.sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.sorted[lo]
	}
	frac := pos - float64(lo)
	return s.sorted[lo]*(1-frac) + s.sorted[hi]*frac
}

// P50 returns the median.
func (s *Sample) P50() float64 { return s.Quantile(0.50) }

// P90 returns the 90th percentile.
func (s *Sample) P90() float64 { return s.Quantile(0.90) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// Quantiles is the paper's standard quantile triple.
type Quantiles struct {
	P50, P90, P99 float64
}

// QuantileTriple extracts P50/P90/P99 in one call.
func (s *Sample) QuantileTriple() Quantiles {
	return Quantiles{P50: s.P50(), P90: s.P90(), P99: s.P99()}
}

// Overhead computes the paper's "change vs singular" metric at each
// quantile: (distributed − singular) / singular. A zero singular value
// yields 0 to keep figures well-defined on degenerate inputs.
func Overhead(distributed, singular Quantiles) Quantiles {
	return Quantiles{
		P50: relChange(distributed.P50, singular.P50),
		P90: relChange(distributed.P90, singular.P90),
		P99: relChange(distributed.P99, singular.P99),
	}
}

func relChange(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (x - base) / base
}

// String renders the triple the way the paper's axes label them.
func (q Quantiles) String() string {
	return fmt.Sprintf("p50=%.4g p90=%.4g p99=%.4g", q.P50, q.P90, q.P99)
}
