package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// quantizeUnder runs QuantizeRows under one kernel family and restores
// the default. The vector family runs the AVX kernel where the host has
// AVX, the generic loop elsewhere.
func quantizeUnder(kern tensor.Kernel, data []float32, rows, cols int, bits Bits) *RowQuantized {
	tensor.SetKernel(kern)
	defer tensor.SetKernel(tensor.KernelAuto)
	return QuantizeRows(data, rows, cols, bits)
}

// sameEncoding reports the first field in which got differs from want.
func sameEncoding(got, want *RowQuantized) error {
	if got.Rows != want.Rows || got.Cols != want.Cols || got.Bits != want.Bits || got.rowStride != want.rowStride {
		return fmt.Errorf("shape %dx%d@%d stride %d, want %dx%d@%d stride %d",
			got.Rows, got.Cols, got.Bits, got.rowStride, want.Rows, want.Cols, want.Bits, want.rowStride)
	}
	if !slices.Equal(got.Scales, want.Scales) {
		return fmt.Errorf("scales differ: %04x, want %04x", got.Scales, want.Scales)
	}
	if !slices.Equal(got.Biases, want.Biases) {
		return fmt.Errorf("biases differ: %04x, want %04x", got.Biases, want.Biases)
	}
	if !bytes.Equal(got.Packed, want.Packed) {
		for i := range want.Packed {
			if got.Packed[i] != want.Packed[i] {
				r := i / want.rowStride
				return fmt.Errorf("row %d byte %d = %#02x, want %#02x (header %04x/%04x)",
					r, i%want.rowStride, got.Packed[i], want.Packed[i], want.Scales[r], want.Biases[r])
			}
		}
	}
	return nil
}

// checkMatchesReference holds QuantizeRows under both kernel families to
// the reference encoder on one table.
func checkMatchesReference(t *testing.T, data []float32, rows, cols int, bits Bits) {
	t.Helper()
	want := quantizeRowsRef(data, rows, cols, bits)
	for _, kern := range []tensor.Kernel{tensor.KernelGeneric, tensor.KernelVector} {
		if err := sameEncoding(quantizeUnder(kern, data, rows, cols, bits), want); err != nil {
			t.Fatalf("kern=%v bits=%d %dx%d: %v\nrows: %v", kern, bits, rows, cols, err, data)
		}
	}
}

var (
	nan      = float32(math.NaN())
	negZero  = math.Float32frombits(0x80000000)
	inf      = float32(math.Inf(1))
	subnorm  = math.Float32frombits(0x00000005)
	maxFloat = float32(math.MaxFloat32)
)

// specialRows returns rows of cols values built around each value class
// the encoder's steps can meet: NaNs with payloads and either sign
// (skipped by the range, code 0), ±0 as minimum, maximum and mid-row (the
// bias's sign), ±Inf and ±MaxFloat32 (an fp16 header that overflows),
// subnormals (a header that underflows), constant and all-NaN rows, and
// values whose (v−bias)/scale is exactly an integer + 0.5.
func specialRows(rng *rand.Rand, cols int, bits Bits) [][]float32 {
	normal := func() []float32 {
		row := make([]float32, cols)
		for i := range row {
			row[i] = float32(rng.NormFloat64() * 0.1)
		}
		return row
	}
	at := func(row []float32, i int, v float32) []float32 {
		row[i%cols] = v
		return row
	}
	fill := func(v float32) []float32 {
		row := make([]float32, cols)
		for i := range row {
			row[i] = v
		}
		return row
	}
	levels := float32(int(1)<<bits - 1)
	// Ties: bias 1 and scale 2^-7 are exact in fp16, hi−lo = levels·2^-7
	// is exact in float32, and 1 + (k+0.5)·2^-7 is exact, so x = k + 0.5.
	ties := make([]float32, cols)
	for i := range ties {
		ties[i] = 1 + (float32(i%int(levels))+0.5)/128
	}
	ties = at(at(ties, 0, 1), cols-1, 1+levels/128)
	nearHalf := make([]float32, cols)
	for i := range nearHalf {
		k := float32(i % int(levels+1))
		nearHalf[i] = 1 + math.Nextafter32(k+0.5, float32(math.Inf(1-2*(i%2))))/128
	}
	nearHalf = at(at(nearHalf, 0, 1), cols-1, 1+levels/128)

	rows := [][]float32{
		normal(),
		at(normal(), 0, nan),
		at(normal(), cols/2, math.Float32frombits(0x7fc01234)),
		at(normal(), cols-1, math.Float32frombits(0xffc00001)),
		fill(nan),
		fill(0), fill(negZero), fill(1.5), fill(-3), fill(inf), fill(-inf), fill(maxFloat),
		at(at(fill(1), 0, negZero), 1, 0),  // min is −0 met first
		at(at(fill(1), 0, 0), 1, negZero),  // min is +0 met first
		at(at(fill(-1), 0, negZero), 1, 0), // max is −0 met first
		at(at(fill(-1), 0, 0), 1, negZero), // max is +0 met first
		at(at(normal(), cols/3, negZero), cols/2, 0),
		at(normal(), cols/2, inf),
		at(normal(), 0, -inf),
		at(at(normal(), 0, -inf), 1, inf),
		at(normal(), cols-1, maxFloat),
		at(at(normal(), 0, -maxFloat), 1, maxFloat),
		at(at(fill(subnorm), 0, -subnorm), 1, math.Float32frombits(0x007fffff)),
		at(fill(1e-6), 0, 1.00001e-6),
		at(fill(70000), 0, -70000),
		ties,
		nearHalf,
	}
	return rows
}

// TestQuantizeRowsMatchesReference holds the encoder to the reference
// byte for byte — scales, biases and packed codes — under both kernel
// families, for both widths, every
// column count from 1 to 33 (each vector body and tail split), the
// special-value rows, DRM-shaped N(0, 0.1) tables and tables that cross
// the kernel's row blocks.
func TestQuantizeRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []Bits{Bits8, Bits4} {
		for cols := 1; cols <= 33; cols++ {
			special := specialRows(rng, cols, bits)
			var data []float32
			for _, row := range special {
				data = append(data, row...)
			}
			checkMatchesReference(t, data, len(special), cols, bits)
			for _, row := range special {
				checkMatchesReference(t, row, 1, cols, bits)
			}
		}
		for _, shape := range [][2]int{{1, 8}, {127, 16}, {128, 8}, {129, 16}, {300, 8}, {300, 16}, {257, 33}} {
			rows, cols := shape[0], shape[1]
			data := make([]float32, rows*cols)
			for i := range data {
				data[i] = float32(rng.NormFloat64() * 0.1)
			}
			checkMatchesReference(t, data, rows, cols, bits)
		}
	}
	// An empty table and zero-width rows: headers only.
	for _, bits := range []Bits{Bits8, Bits4} {
		checkMatchesReference(t, nil, 0, 8, bits)
		checkMatchesReference(t, nil, 3, 0, bits)
	}
}

// FuzzQuantizeRowsMatchesReference searches for a table on which the
// encoder and the reference disagree: fuzz bytes are the values, cols
// picks the row width (1–40) and the remainder of the values is dropped.
func FuzzQuantizeRowsMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, cols := range []int{1, 7, 8, 16, 17} {
		for _, bits := range []Bits{Bits8, Bits4} {
			var b []byte
			for _, row := range specialRows(rng, cols, bits) {
				for _, v := range row {
					b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
				}
			}
			f.Add(b, uint8(cols-1), bits == Bits8)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte, colsRaw uint8, wide bool) {
		bits := Bits4
		if wide {
			bits = Bits8
		}
		cols := 1 + int(colsRaw)%40
		xs := fuzzFloats(b, 1024)
		rows := len(xs) / cols
		checkMatchesReference(t, xs[:rows*cols], rows, cols, bits)
	})
}
