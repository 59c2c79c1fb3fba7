package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fp16Bound is the reconstruction-error bound for row-wise quantization
// with fp16 headers: the half quantization step of MaxError plus the fp16
// rounding of the scale (amplified by up to `levels` codes) and bias.
func fp16Bound(lo, hi float32, bits Bits) float64 {
	r := float64(hi - lo)
	return float64(MaxError(hi-lo, bits)) + (r+math.Abs(float64(lo)))/1024 + 1e-6
}

func TestQuantizeRoundTrip8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows, cols := 16, 8
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = rng.Float32()*10 - 5
	}
	q := QuantizeRows(data, rows, cols, Bits8)
	dst := make([]float32, cols)
	for r := 0; r < rows; r++ {
		q.DecodeRow(dst, r)
		row := data[r*cols : (r+1)*cols]
		lo, hi := minMax(row)
		bound := fp16Bound(lo, hi, Bits8)
		for c := range dst {
			if err := math.Abs(float64(dst[c] - row[c])); err > bound {
				t.Fatalf("row %d col %d: err %v > bound %v", r, c, err, bound)
			}
		}
	}
}

func TestQuantizeRoundTrip4(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows, cols := 8, 7 // odd cols exercises nibble packing tail
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = rng.Float32()*2 - 1
	}
	q := QuantizeRows(data, rows, cols, Bits4)
	dst := make([]float32, cols)
	for r := 0; r < rows; r++ {
		q.DecodeRow(dst, r)
		row := data[r*cols : (r+1)*cols]
		lo, hi := minMax(row)
		bound := fp16Bound(lo, hi, Bits4)
		for c := range dst {
			if err := math.Abs(float64(dst[c] - row[c])); err > bound {
				t.Fatalf("row %d col %d: err %v > bound %v (got %v want %v)", r, c, err, bound, dst[c], row[c])
			}
		}
	}
}

func TestQuantizeConstantRow(t *testing.T) {
	data := []float32{3.5, 3.5, 3.5, 3.5}
	q := QuantizeRows(data, 1, 4, Bits8)
	dst := make([]float32, 4)
	q.DecodeRow(dst, 0)
	for _, v := range dst {
		if v != 3.5 {
			t.Fatalf("constant row should reconstruct exactly, got %v", v)
		}
	}
}

func TestQuantizedBytes(t *testing.T) {
	rows, cols := 10, 16
	data := make([]float32, rows*cols)
	q8 := QuantizeRows(data, rows, cols, Bits8)
	// 8-bit: rows*cols codes + 4 bytes/row fp16 header pair.
	if want := int64(rows*cols + rows*4); q8.Bytes() != want {
		t.Errorf("8-bit Bytes = %d, want %d", q8.Bytes(), want)
	}
	q4 := QuantizeRows(data, rows, cols, Bits4)
	if want := int64(rows*cols/2 + rows*4); q4.Bytes() != want {
		t.Errorf("4-bit Bytes = %d, want %d", q4.Bytes(), want)
	}
	// Compression vs fp32 (ignoring headers): 4x and 8x respectively.
	fp32 := int64(rows * cols * 4)
	if ratio := float64(fp32) / float64(q8.Bytes()); ratio < 3 {
		t.Errorf("8-bit ratio %v too low", ratio)
	}
	if ratio := float64(fp32) / float64(q4.Bytes()); ratio < 5 {
		t.Errorf("4-bit ratio %v too low", ratio)
	}
}

func TestAccumulateRowMatchesDequant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cols := 12
	data := make([]float32, 4*cols)
	for i := range data {
		data[i] = rng.Float32()
	}
	for _, bits := range []Bits{Bits8, Bits4} {
		q := QuantizeRows(data, 4, cols, bits)
		acc := make([]float32, cols)
		q.AccumulateRow(acc, 1)
		q.AccumulateRow(acc, 3)
		want := make([]float32, cols)
		tmp := make([]float32, cols)
		q.DecodeRow(tmp, 1)
		for i := range want {
			want[i] += tmp[i]
		}
		q.DecodeRow(tmp, 3)
		for i := range want {
			want[i] += tmp[i]
		}
		for i := range want {
			if math.Abs(float64(acc[i]-want[i])) > 1e-5 {
				t.Fatalf("bits=%d: AccumulateRow diverges at %d: %v vs %v", bits, i, acc[i], want[i])
			}
		}
	}
}

func TestQuantizeErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(20)
		row := make([]float32, cols)
		for i := range row {
			row[i] = rng.Float32()*200 - 100
		}
		q := QuantizeRows(row, 1, cols, Bits8)
		dst := make([]float32, cols)
		q.DecodeRow(dst, 0)
		lo, hi := minMax(row)
		bound := fp16Bound(lo, hi, Bits8)
		for c := range dst {
			if math.Abs(float64(dst[c]-row[c])) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantizePanics(t *testing.T) {
	cases := []func(){
		func() { QuantizeRows(make([]float32, 3), 2, 2, Bits8) },
		func() { QuantizeRows(make([]float32, 4), 2, 2, Bits(3)) },
		func() {
			q := QuantizeRows(make([]float32, 4), 2, 2, Bits8)
			q.DecodeRow(make([]float32, 1), 0)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPruneMagnitude(t *testing.T) {
	data := []float32{0.01, -0.02, 0.5, -0.6, 0}
	n := PruneMagnitude(data, 0.1)
	if n != 2 {
		t.Errorf("pruned %d, want 2", n)
	}
	want := []float32{0, 0, 0.5, -0.6, 0}
	for i, w := range want {
		if data[i] != w {
			t.Errorf("data[%d] = %v, want %v", i, data[i], w)
		}
	}
}

func TestPruneIdempotentProperty(t *testing.T) {
	f := func(xs []float32, th float32) bool {
		if math.IsNaN(float64(th)) {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(float64(x)) {
				return true
			}
		}
		cp := append([]float32(nil), xs...)
		PruneMagnitude(cp, th)
		again := append([]float32(nil), cp...)
		n := PruneMagnitude(again, th)
		if n != 0 {
			return false
		}
		for i := range cp {
			if cp[i] != again[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
