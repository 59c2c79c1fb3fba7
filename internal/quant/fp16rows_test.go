package quant

import (
	"math"
	"math/rand"
	"testing"
)

func TestFP16RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float32, 64*17)
	for i := range data {
		data[i] = (rng.Float32()*2 - 1) * 10
	}
	enc := EncodeFP16Rows(data, 64, 17)
	dst := make([]float32, 17)
	for r := 0; r < 64; r++ {
		enc.DecodeRow(dst, r)
		for c, got := range dst {
			want := data[r*17+c]
			bound := MaxErrorFP16(float32(math.Abs(float64(want))))
			if diff := math.Abs(float64(got - want)); diff > float64(bound) {
				t.Fatalf("row %d col %d: %g -> %g, |err| %g > bound %g", r, c, want, got, diff, bound)
			}
		}
	}
}

func TestFP16EncodeIdempotent(t *testing.T) {
	// decode(encode(x)) is exactly representable, so a second encode must
	// reproduce identical bits — the property that lets a re-encoded
	// migrated table stay byte-identical.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := (rng.Float32()*2 - 1) * 100
		h := f32to16sat(x)
		if again := f32to16sat(f16to32(h)); again != h {
			t.Fatalf("x=%g: encode %04x, re-encode %04x", x, h, again)
		}
	}
}

func TestFP16Saturation(t *testing.T) {
	for _, x := range []float32{1e10, 70000, -1e10, -70000} {
		h := f32to16sat(x)
		got := f16to32(h)
		want := float32(fp16MaxFinite)
		if x < 0 {
			want = -want
		}
		if got != want {
			t.Fatalf("f32to16sat(%g) decodes to %g, want %g", x, got, want)
		}
	}
	// NaN survives as NaN, not a saturated finite.
	nan := float32(math.NaN())
	if got := f16to32(f32to16sat(nan)); got == got {
		t.Fatalf("NaN encoded to finite %g", got)
	}
}

func TestFP16RowRangeCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]float32, 20*6)
	for i := range data {
		data[i] = rng.Float32()
	}
	src := EncodeFP16Rows(data, 20, 6)
	dst := NewFP16Rows(20, 6)
	for lo := 0; lo < 20; lo += 7 {
		hi := lo + 7
		if hi > 20 {
			hi = 20
		}
		raw := src.AppendRowRange(nil, lo, hi)
		if len(raw) != (hi-lo)*src.RowRangeStride() {
			t.Fatalf("range [%d,%d): %d bytes, want %d", lo, hi, len(raw), (hi-lo)*src.RowRangeStride())
		}
		n, err := dst.SetRowRange(lo, raw)
		if err != nil || n != hi-lo {
			t.Fatalf("SetRowRange: n=%d err=%v", n, err)
		}
	}
	for i, h := range src.Data {
		if dst.Data[i] != h {
			t.Fatalf("value %d: %04x != %04x", i, dst.Data[i], h)
		}
	}
	// Bad inputs are rejected, not panics.
	if _, err := dst.SetRowRange(0, make([]byte, 5)); err == nil {
		t.Fatal("misaligned raw accepted")
	}
	if _, err := dst.SetRowRange(19, make([]byte, 2*6*2)); err == nil {
		t.Fatal("overflowing range accepted")
	}
}

func TestFP16FromParts(t *testing.T) {
	if _, err := FP16FromParts(2, 3, make([]uint16, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := FP16FromParts(2, 3, make([]uint16, 5)); err == nil {
		t.Fatal("short data accepted")
	}
	if _, err := FP16FromParts(-1, 3, nil); err == nil {
		t.Fatal("negative shape accepted")
	}
}

func TestRowQuantizedRowRangeCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []Bits{Bits8, Bits4} {
		data := make([]float32, 33*5)
		for i := range data {
			data[i] = rng.Float32()*2 - 1
		}
		src := QuantizeRows(data, 33, 5, bits)
		dst := NewRowQuantizedEmpty(33, 5, bits)
		for lo := 0; lo < 33; lo += 8 {
			hi := lo + 8
			if hi > 33 {
				hi = 33
			}
			raw := src.AppendRowRange(nil, lo, hi)
			if len(raw) != (hi-lo)*src.RowRangeStride() {
				t.Fatalf("bits %d range [%d,%d): %d bytes, want %d", bits, lo, hi, len(raw), (hi-lo)*src.RowRangeStride())
			}
			if n, err := dst.SetRowRange(lo, raw); err != nil || n != hi-lo {
				t.Fatalf("bits %d SetRowRange: n=%d err=%v", bits, n, err)
			}
		}
		for r := 0; r < 33; r++ {
			if dst.Scales[r] != src.Scales[r] || dst.Biases[r] != src.Biases[r] {
				t.Fatalf("bits %d row %d: headers differ", bits, r)
			}
		}
		for i := range src.Packed {
			if dst.Packed[i] != src.Packed[i] {
				t.Fatalf("bits %d packed byte %d differs", bits, i)
			}
		}
		if _, err := dst.SetRowRange(0, make([]byte, 3)); err == nil {
			t.Fatal("misaligned raw accepted")
		}
	}
}

// TestEncodingsServeAsTables holds the lookup surface both encodings
// serve as tables: the shape, and rows that pool to exactly their
// decoded values (a cache that stores DecodeRow must add what
// AccumulateRow adds).
func TestEncodingsServeAsTables(t *testing.T) {
	const rows, cols = 5, 7
	rng := rand.New(rand.NewSource(9))
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = rng.Float32()*2 - 1
	}
	type table interface {
		NumRows() int
		Dim() int
		DecodeRow(dst []float32, r int)
		AccumulateRow(acc []float32, r int)
	}
	for name, tab := range map[string]table{
		"fp16": EncodeFP16Rows(data, rows, cols),
		"int8": QuantizeRows(data, rows, cols, Bits8),
		"int4": QuantizeRows(data, rows, cols, Bits4),
	} {
		if tab.NumRows() != rows || tab.Dim() != cols {
			t.Fatalf("%s: shape %dx%d, want %dx%d", name, tab.NumRows(), tab.Dim(), rows, cols)
		}
		dec, acc := make([]float32, cols), make([]float32, cols)
		for r := range rows {
			clear(acc)
			tab.DecodeRow(dec, r)
			tab.AccumulateRow(acc, r)
			for c := range dec {
				if math.Float32bits(dec[c]) != math.Float32bits(acc[c]) {
					t.Fatalf("%s row %d col %d: decoded %g, pooled %g", name, r, c, dec[c], acc[c])
				}
			}
		}
	}
}
