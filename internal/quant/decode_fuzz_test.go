package quant

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// Differential fuzzers for the vectorized row decoders: arbitrary
// packed bytes, arbitrary fp16 headers (including NaN/Inf/subnormal
// bit patterns), arbitrary widths and column counts — the word-wide /
// SIMD kernels must match the scalar reference bitwise on every input,
// and the unsafe word loads must never read out of bounds (the fuzzer
// runs with the race detector and bounds checks in CI's smoke leg).
// Complements the fixed adversarial sweeps in internal/kerneltest with
// coverage-guided search.

// fuzzQuantized builds a RowQuantized directly from fuzzer-controlled
// headers and packed bytes — unlike QuantizeRows this reaches encodings
// no encoder produces (NaN scales, Inf biases), which the decoders must
// still handle deterministically. Returns nil if the fuzz inputs don't
// describe a well-formed table.
func fuzzQuantized(packed []byte, scale, bias uint16, cols int, bits Bits) *RowQuantized {
	if cols <= 0 || cols > 512 {
		return nil
	}
	stride := rowStrideFor(cols, bits)
	if len(packed) < stride {
		return nil
	}
	q, err := NewFromParts(1, cols, bits, []uint16{scale}, []uint16{bias}, packed[:stride])
	if err != nil {
		return nil
	}
	return q
}

// FuzzWordWideRowDecode drives AccumulateRow and DecodeRow
// through both dispatch settings on fuzzer-shaped rows and asserts
// bitwise-identical outputs, with the accumulator pre-seeded from fuzz
// bytes so the acc-add sees arbitrary prior values (NaNs included).
func FuzzWordWideRowDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(0x3c00), uint16(0x0000), 8, true, uint32(0))
	f.Add([]byte{0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88}, uint16(0x7e01), uint16(0x7e02), 16, false, uint32(0x7fc00003))
	f.Add([]byte{1, 2, 3}, uint16(0x7c00), uint16(0x8000), 5, false, uint32(0xff800000))
	f.Add([]byte{0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55}, uint16(0x0001), uint16(0xfc00), 17, true, uint32(1))
	f.Fuzz(func(t *testing.T, packed []byte, scale, bias uint16, cols int, wide bool, accSeed uint32) {
		bits := Bits8
		if !wide {
			bits = Bits4
		}
		q := fuzzQuantized(packed, scale, bias, cols, bits)
		if q == nil {
			t.Skip()
		}
		defer tensor.SetKernel(tensor.KernelAuto)

		seed := math.Float32frombits(accSeed)
		run := func(k tensor.Kernel) ([]float32, []float32) {
			tensor.SetKernel(k)
			acc := make([]float32, cols)
			for i := range acc {
				acc[i] = seed
			}
			q.AccumulateRow(acc, 0)
			dst := make([]float32, cols)
			q.DecodeRow(dst, 0)
			return acc, dst
		}
		accG, dstG := run(tensor.KernelGeneric)
		accV, dstV := run(tensor.KernelVector)
		for i := 0; i < cols; i++ {
			if math.Float32bits(accG[i]) != math.Float32bits(accV[i]) {
				t.Fatalf("bits=%d cols=%d acc[%d]: generic %08x, vector %08x",
					bits, cols, i, math.Float32bits(accG[i]), math.Float32bits(accV[i]))
			}
			if math.Float32bits(dstG[i]) != math.Float32bits(dstV[i]) {
				t.Fatalf("bits=%d cols=%d dst[%d]: generic %08x, vector %08x",
					bits, cols, i, math.Float32bits(dstG[i]), math.Float32bits(dstV[i]))
			}
		}
	})
}

// FuzzWordWideDecodeOffsets targets the unsafe 8-byte loads at hostile
// offsets: the packed row is a sub-slice of a larger fuzz buffer at an
// arbitrary byte offset, so a decoder reading one byte past its row —
// invisible when the row owns the whole allocation — produces a visible
// cross-kernel mismatch here.
func FuzzWordWideDecodeOffsets(f *testing.F) {
	f.Add(make([]byte, 64), 3, 13, true)
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, 1, 16, false)
	f.Add([]byte{0x80, 0x7f, 0, 0xff, 1, 2, 3, 4, 5, 6}, 2, 8, true)
	f.Fuzz(func(t *testing.T, buf []byte, off, cols int, wide bool) {
		bits := Bits8
		if !wide {
			bits = Bits4
		}
		if cols <= 0 || cols > 256 || off < 0 || off > len(buf) {
			t.Skip()
		}
		q := fuzzQuantized(buf[off:], 0x3c01, 0xbc01, cols, bits)
		if q == nil {
			t.Skip()
		}
		defer tensor.SetKernel(tensor.KernelAuto)
		tensor.SetKernel(tensor.KernelGeneric)
		want := make([]float32, cols)
		q.AccumulateRow(want, 0)
		tensor.SetKernel(tensor.KernelVector)
		got := make([]float32, cols)
		q.AccumulateRow(got, 0)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("off=%d cols=%d bits=%d: element %d: generic %08x, vector %08x",
					off, cols, bits, i, math.Float32bits(want[i]), math.Float32bits(got[i]))
			}
		}
	})
}
