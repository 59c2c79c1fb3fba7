package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(nil)
	if s.Len() != 0 || s.Mean() != 0 || s.P50() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty sample should return zeros, got len=%d mean=%v p50=%v", s.Len(), s.Mean(), s.P50())
	}
}

func TestSampleSingle(t *testing.T) {
	s := NewSample([]float64{42})
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
	if s.Mean() != 42 || s.Min() != 42 || s.Max() != 42 {
		t.Errorf("single-element summary wrong: mean=%v min=%v max=%v", s.Mean(), s.Min(), s.Max())
	}
}

func TestQuantileInterpolation(t *testing.T) {
	// [1,2,3,4,5]: median 3, P90 interpolates between 4 and 5.
	s := NewSample([]float64{5, 3, 1, 4, 2})
	if got := s.P50(); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
	if got := s.Quantile(0.9); !almostEqual(got, 4.6, 1e-12) {
		t.Errorf("Quantile(0.9) = %v, want 4.6", got)
	}
	if got := s.Quantile(0.25); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Quantile(0.25) = %v, want 2", got)
	}
}

func TestQuantileClamping(t *testing.T) {
	s := NewSample([]float64{1, 2, 3})
	if s.Quantile(-0.5) != 1 {
		t.Errorf("negative quantile should clamp to min")
	}
	if s.Quantile(1.5) != 3 {
		t.Errorf("quantile > 1 should clamp to max")
	}
}

func TestSampleDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewSample(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("NewSample mutated its input: %v", in)
	}
}

func TestQuantileMonotonicProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		s := NewSample(xs)
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileBoundsProperty(t *testing.T) {
	f := func(xs []float64, q float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		s := NewSample(xs)
		v := s.Quantile(math.Abs(math.Mod(q, 1)))
		return v >= s.Min() && v <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanSumProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				return true
			}
		}
		s := NewSample(xs)
		if len(xs) == 0 {
			return s.Mean() == 0
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return almostEqual(s.Sum(), sum, 1e-6*(1+math.Abs(sum))) &&
			almostEqual(s.Mean(), sum/float64(len(xs)), 1e-6*(1+math.Abs(sum)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileMatchesSortedRank(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	s := NewSample(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// With n-1 = 1000, q=0.5 lands exactly on index 500.
	if got, want := s.P50(), sorted[500]; got != want {
		t.Errorf("P50 = %v, want exact rank value %v", got, want)
	}
	if got, want := s.P90(), sorted[900]; got != want {
		t.Errorf("P90 = %v, want %v", got, want)
	}
	if got, want := s.P99(), sorted[990]; got != want {
		t.Errorf("P99 = %v, want %v", got, want)
	}
}

func TestOverhead(t *testing.T) {
	base := Quantiles{P50: 10, P90: 20, P99: 40}
	dist := Quantiles{P50: 11, P90: 25, P99: 40.4}
	ov := Overhead(dist, base)
	if !almostEqual(ov.P50, 0.1, 1e-12) || !almostEqual(ov.P90, 0.25, 1e-12) || !almostEqual(ov.P99, 0.01, 1e-12) {
		t.Errorf("Overhead = %+v", ov)
	}
}

func TestOverheadZeroBase(t *testing.T) {
	ov := Overhead(Quantiles{P50: 5}, Quantiles{})
	if ov.P50 != 0 || ov.P90 != 0 || ov.P99 != 0 {
		t.Errorf("zero base should yield zero overhead, got %+v", ov)
	}
}

func TestDurationSample(t *testing.T) {
	s := NewDurationSample([]time.Duration{time.Second, 3 * time.Second})
	if got := s.Mean(); !almostEqual(got, 2, 1e-12) {
		t.Errorf("duration mean = %v, want 2s", got)
	}
}

func TestQuantilesString(t *testing.T) {
	q := Quantiles{P50: 1, P90: 2, P99: 3}
	if q.String() == "" {
		t.Error("String should be non-empty")
	}
}
