package quant

import (
	"encoding/binary"
	"math"
	"testing"
)

// Property fuzzers for the quantization codecs: arbitrary float rows in,
// and the encode→decode round trip must stay inside the analytic error
// bound (or reject the input) — never panic, never drift unbounded. Run
// in CI as a -fuzztime smoke on top of the committed seeds.

// fuzzFloats reinterprets fuzz bytes as float32s, capping the row so the
// fuzzer explores shapes rather than allocation limits.
func fuzzFloats(b []byte, maxVals int) []float32 {
	n := len(b) / 4
	if n > maxVals {
		n = maxVals
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func finite(xs []float32) bool {
	for _, x := range xs {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}

func FuzzFP16RoundTrip(f *testing.F) {
	seed := func(xs ...float32) {
		b := make([]byte, 4*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
		}
		f.Add(b)
	}
	seed(0, 1, -1, 0.5)
	seed(65504, -65504, 70000, 1e-8)
	seed(float32(math.NaN()), float32(math.Inf(1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := fuzzFloats(b, 256)
		if len(xs) == 0 {
			t.Skip()
		}
		enc := EncodeFP16Rows(xs, 1, len(xs))
		dst := make([]float32, len(xs))
		enc.DecodeRow(dst, 0)
		for i, want := range xs {
			got := dst[i]
			if math.IsNaN(float64(want)) {
				if !math.IsNaN(float64(got)) {
					t.Fatalf("NaN decoded to %g", got)
				}
				continue
			}
			absWant := float32(math.Abs(float64(want)))
			if math.IsInf(float64(want), 0) {
				// Saturating encode clamps infinities to the max finite.
				if math.Abs(float64(got)) != fp16MaxFinite {
					t.Fatalf("inf decoded to %g", got)
				}
				continue
			}
			bound := float64(MaxErrorFP16(absWant))
			if diff := math.Abs(float64(got - want)); diff > bound {
				t.Fatalf("val %d: %g -> %g, |err| %g > bound %g", i, want, got, diff, bound)
			}
			// Idempotence: re-encoding the decoded value is bit-stable.
			if f32to16sat(got) != enc.Data[i] {
				t.Fatalf("val %d: re-encode not idempotent", i)
			}
		}
	})
}

func FuzzQuantizeRowsErrorBound(f *testing.F) {
	seed := func(xs ...float32) {
		b := make([]byte, 4*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
		}
		f.Add(b, uint8(8))
		f.Add(b, uint8(4))
	}
	seed(0, 0, 0, 0)
	seed(1, -1, 0.25, 0.75)
	seed(100, -100, 1e-3, 42)
	f.Fuzz(func(t *testing.T, b []byte, bitsRaw uint8) {
		bits := Bits8
		if bitsRaw%2 == 0 {
			bits = Bits4
		}
		xs := fuzzFloats(b, 128)
		if len(xs) == 0 || !finite(xs) {
			t.Skip()
		}
		for _, x := range xs {
			// Extreme magnitudes overflow the fp16 row headers; the
			// production encoder never sees them (embedding values are
			// O(1)) and the bound below assumes finite headers.
			if math.Abs(float64(x)) > 1e4 {
				t.Skip()
			}
		}
		q := QuantizeRows(xs, 1, len(xs), bits)
		dst := make([]float32, len(xs))
		q.DecodeRow(dst, 0)

		lo, hi := minMax(xs)
		scale := float64(f16to32(q.Scales[0]))
		// Bound: half a quantization step, plus what fp16-rounding the
		// scale/bias headers can displace the reconstruction grid by.
		// Header rounding is within 2^-11 relative for normal-range
		// values but only within 2^-25 absolute in the subnormal range
		// (a tiny scale underflows fp16's normal exponents), and the
		// scale's error is amplified by up to `levels` code steps.
		levels := float64(int(1)<<bits - 1)
		headerErr := func(x float64) float64 {
			return math.Max(math.Abs(x)/2048, 1.0/(1<<25))
		}
		exactScale := float64(hi-lo) / levels
		bound := scale/2 +
			headerErr(float64(lo)) + // bias rounding
			headerErr(exactScale)*levels + // scale rounding across the range
			1e-6
		for i, want := range xs {
			if diff := math.Abs(float64(dst[i] - want)); diff > bound {
				t.Fatalf("bits %d val %d: %g -> %g, |err| %g > bound %g (scale %g)",
					bits, i, want, dst[i], diff, bound, scale)
			}
		}

		// The row-range wire codec round-trips the encoding bit-exactly.
		clone := NewRowQuantizedEmpty(1, len(xs), bits)
		if _, err := clone.SetRowRange(0, q.AppendRowRange(nil, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if clone.Scales[0] != q.Scales[0] || clone.Biases[0] != q.Biases[0] {
			t.Fatal("row-range codec changed headers")
		}
		for i := range q.Packed {
			if clone.Packed[i] != q.Packed[i] {
				t.Fatal("row-range codec changed codes")
			}
		}
	})
}
