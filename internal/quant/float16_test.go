package quant

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat16ExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{0.5, 0x3800},
		{2, 0x4000},
		{65504, 0x7bff}, // max finite half
	}
	for _, c := range cases {
		if got := f32to16(c.f); got != c.h {
			t.Errorf("f32to16(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := f16to32(c.h); got != c.f {
			t.Errorf("f16to32(%#04x) = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestFloat16Overflow(t *testing.T) {
	if got := f16to32(f32to16(1e10)); !math.IsInf(float64(got), 1) {
		t.Errorf("overflow should clamp to +Inf, got %v", got)
	}
	if got := f16to32(f32to16(-1e10)); !math.IsInf(float64(got), -1) {
		t.Errorf("overflow should clamp to -Inf, got %v", got)
	}
}

func TestFloat16NaN(t *testing.T) {
	nan := float32(math.NaN())
	if got := f16to32(f32to16(nan)); !math.IsNaN(float64(got)) {
		t.Errorf("NaN should round-trip as NaN, got %v", got)
	}
	// Every NaN, whatever its payload or quietness, encodes as the
	// canonical quiet NaN with its sign: an encoder header is these bits.
	for _, c := range []struct {
		bits uint32
		want uint16
	}{
		{0x7fc00000, 0x7e00}, {0x7fc01234, 0x7e00}, {0x7f800001, 0x7e00}, {0x7fffffff, 0x7e00},
		{0xffc00000, 0xfe00}, {0xffc00001, 0xfe00}, {0xff800001, 0xfe00}, {0xffffffff, 0xfe00},
	} {
		if got := f32to16(math.Float32frombits(c.bits)); got != c.want {
			t.Errorf("f32to16(%#08x) = %#04x, want %#04x", c.bits, got, c.want)
		}
	}
}

func TestFloat16Subnormals(t *testing.T) {
	// Smallest half subnormal is 2^-24 ≈ 5.96e-8.
	tiny := float32(math.Ldexp(1, -24))
	if got := f16to32(f32to16(tiny)); got != tiny {
		t.Errorf("subnormal %v round-tripped to %v", tiny, got)
	}
	// Below half subnormal range flushes to zero.
	if got := f16to32(f32to16(1e-10)); got != 0 {
		t.Errorf("underflow should flush to zero, got %v", got)
	}
}

func TestFloat16RoundTripPrecisionProperty(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		// Restrict to half's normal range.
		if x != 0 && (math.Abs(float64(x)) < 6.2e-5 || math.Abs(float64(x)) > 65000) {
			return true
		}
		got := f16to32(f32to16(x))
		// Half has 11 significand bits → relative error ≤ 2^-11.
		rel := math.Abs(float64(got-x)) / math.Max(math.Abs(float64(x)), 1e-30)
		return rel <= 1.0/2048+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFloat16DecodeEncodeIdentityProperty(t *testing.T) {
	// Every finite half value must encode back to itself exactly.
	for h := 0; h < 1<<16; h++ {
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 {
			continue // NaN payloads need not round-trip bit-exactly
		}
		f := f16to32(uint16(h))
		if got := f32to16(f); got != uint16(h) {
			// -0 and +0 are distinct bit patterns but equal floats; the
			// encoder must still preserve the sign.
			t.Fatalf("f32to16(f16to32(%#04x)) = %#04x", h, got)
		}
	}
}
