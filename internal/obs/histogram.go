package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram is a streaming log-bucketed histogram for latency-like
// non-negative integer values (nanoseconds by convention; metric names
// carry a _ns suffix). Observe is a single atomic add into a bucket
// picked from the value's bit length: four sub-buckets per octave, so
// any reconstructed quantile is within 1/8 relative error of the true
// value — tighter than the run-to-run noise of anything it measures.
//
// Buckets are plain atomics with no locks; snapshots (HistSnapshot) are
// mergeable and subtractable.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
}

// histBuckets covers values 0..2^63-1 at four buckets per octave:
// values 0..3 map to buckets 0..3, and a value with bit length l ≥ 3
// maps to bucket 4*(l-2) + (two bits below the leading bit). Bit length
// 63 tops out at bucket 247.
const histBuckets = 248

// histBucket returns the bucket index for v (negatives clamp to 0).
func histBucket(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := bits.Len64(uint64(v))
	return 4*(l-2) + int((uint64(v)>>(l-3))&3)
}

// histBucketBounds returns bucket i's value range [lo, hi).
func histBucketBounds(i int) (lo, hi int64) {
	if i < 4 {
		return int64(i), int64(i) + 1
	}
	l := i/4 + 2
	f := int64(i % 4)
	width := int64(1) << (l - 3)
	lo = (4 + f) << (l - 3)
	return lo, lo + width
}

// Observe folds one value in. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the histogram's current state. Concurrent Observes
// may straddle the copy; each one lands wholly in this snapshot or the
// next.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Counts = make([]int64, histBuckets)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram, mergeable across
// shards and subtractable across time.
type HistSnapshot struct {
	Counts []int64
	Count  int64
	Sum    int64
}

// Merge folds another snapshot in (e.g. the same metric across
// replicas).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(o.Counts) == 0 {
		return
	}
	if len(s.Counts) == 0 {
		s.Counts = make([]int64, histBuckets)
	}
	for i := range o.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Sub subtracts an earlier snapshot of the same metric, leaving the
// window between the two. Negative residues (impossible for a monotonic
// source) clamp to zero.
func (s *HistSnapshot) Sub(prev HistSnapshot) {
	for i := range s.Counts {
		var p int64
		if i < len(prev.Counts) {
			p = prev.Counts[i]
		}
		s.Counts[i] -= p
		if s.Counts[i] < 0 {
			s.Counts[i] = 0
		}
	}
	s.Count -= prev.Count
	if s.Count < 0 {
		s.Count = 0
	}
	s.Sum -= prev.Sum
	if s.Sum < 0 {
		s.Sum = 0
	}
}

// Mean returns the average observed value (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile reconstructs the q-quantile (q in [0,1]) by walking the
// cumulative bucket counts and interpolating linearly inside the
// landing bucket. Returns 0 when the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		lo, hi := histBucketBounds(i)
		next := cum + float64(n)
		if rank <= next {
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
			}
			return float64(lo) + frac*float64(hi-lo)
		}
		cum = next
	}
	// Ran off the end (q == 1): the upper bound of the last occupied
	// bucket is the max estimate.
	return s.Max()
}

// Max returns the upper bound of the highest occupied bucket — an
// estimate of the largest observed value, within one sub-bucket width.
func (s HistSnapshot) Max() float64 {
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := histBucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}
