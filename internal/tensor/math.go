package tensor

import "math"

// exp64 is a thin indirection over math.Exp so the activation kernels keep
// a single call site; it exists to make the float64 round-trip in sigmoid
// explicit rather than incidental.
func exp64(x float64) float64 { return math.Exp(x) }

// Scale multiplies every element of m by s in place.
func Scale(m *Matrix, s float32) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Clip clamps every element of m into [lo, hi] in place. The production
// models in the paper include scale/clip operators in their preprocessing
// stages (Fig. 4's "Scale/Clip" group).
func Clip(m *Matrix, lo, hi float32) {
	for i, v := range m.Data {
		if v < lo {
			m.Data[i] = lo
		} else if v > hi {
			m.Data[i] = hi
		}
	}
}

// AXPY computes dst[i] += a*x[i] over float32 slices of equal length.
func AXPY(dst []float32, a float32, x []float32) {
	_ = dst[len(x)-1] // bounds-check hint
	for i, v := range x {
		dst[i] += float32(a * v)
	}
}

// Sum adds x into dst elementwise; the two slices must have equal length.
func Sum(dst, x []float32) {
	_ = dst[len(x)-1]
	for i, v := range x {
		dst[i] += v
	}
}

// Dot returns the inner product of equal-length slices.
func Dot(a, b []float32) float32 {
	var acc float32
	_ = b[len(a)-1]
	for i, v := range a {
		acc += float32(v * b[i])
	}
	return acc
}

// MaxAbs returns the largest absolute value in xs (0 for empty input).
func MaxAbs(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}
