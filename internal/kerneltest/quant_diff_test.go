package kerneltest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// adversarialHeaders returns fp16 (scale, bias) pairs covering every
// propagation class the decode arithmetic can hit: NaNs with distinct
// payloads (both-NaN adds resolve by x86 first-source order), ±Inf
// (code*Inf and Inf+bias produce invalid-op NaNs for zero codes),
// subnormals, signed zeros, and ordinary values.
func adversarialHeaders() [][2]uint16 {
	return [][2]uint16{
		{0x3c00, 0x0000}, // 1.0, +0
		{0x3c00, 0x8000}, // 1.0, -0
		{0x7e01, 0x3c00}, // NaN scale
		{0x3c00, 0x7e02}, // NaN bias
		{0x7e01, 0x7e02}, // distinct NaN payloads: both-NaN add
		{0x7c00, 0x3c00}, // +Inf scale: 0*Inf -> invalid-op NaN
		{0xfc00, 0x7c00}, // -Inf scale, +Inf bias: Inf-Inf
		{0x0001, 0x0001}, // subnormal scale and bias
		{0x8001, 0x3c00}, // negative subnormal scale
		{0x5640, 0xd640}, // 100, -100
	}
}

// packedRow fills a packed byte row; every byte value is a valid code
// for both widths (int4 reads each nibble separately).
func packedRow(rng *rand.Rand, n int) []byte {
	row := make([]byte, n)
	for i := range row {
		row[i] = byte(rng.Intn(256))
	}
	return row
}

// TestQuantDecodeDifferential compares the vector decode kernels
// against the scalar reference bitwise for both widths, across column
// counts covering every vector-body/tail split, with adversarial
// scale/bias headers, on dequantize, accumulate-row, and whole-bag
// paths.
func TestQuantDecodeDifferential(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []quant.Bits{quant.Bits8, quant.Bits4} {
		for _, cols := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 64, 67} {
			for hi, hdr := range adversarialHeaders() {
				rows := 6
				stride := cols
				if bits == quant.Bits4 {
					stride = (cols + 1) / 2
				}
				scales := make([]uint16, rows)
				biases := make([]uint16, rows)
				packed := packedRow(rng, rows*stride)
				for r := 0; r < rows; r++ {
					scales[r], biases[r] = hdr[0], hdr[1]
				}
				q, err := quant.NewFromParts(rows, cols, bits, scales, biases, packed)
				if err != nil {
					t.Fatal(err)
				}

				// Accumulators pre-seeded with special values so the
				// acc += t add sees NaN/Inf on both sides.
				seed := make([]float32, cols)
				Payloads()[2].Fill(rng, seed)

				indices := make([]int32, 10)
				for i := range indices {
					indices[i] = int32(rng.Intn(rows))
				}

				type result struct{ deq, accRow, accBag []float32 }
				run := func(k tensor.Kernel) result {
					tensor.SetKernel(k)
					var res result
					res.deq = make([]float32, cols)
					q.DecodeRow(res.deq, rows-1)
					res.accRow = append([]float32(nil), seed...)
					for r := 0; r < rows; r++ {
						q.AccumulateRow(res.accRow, r)
					}
					res.accBag = append([]float32(nil), seed...)
					q.AccumulateBag(res.accBag, indices)
					return res
				}
				want := run(tensor.KernelGeneric)
				got := run(tensor.KernelVector)
				for _, cmp := range []struct {
					name      string
					got, want []float32
				}{
					{"dequantize", got.deq, want.deq},
					{"accumulate-row", got.accRow, want.accRow},
					{"accumulate-bag", got.accBag, want.accBag},
				} {
					if i := DiffFloat32(cmp.got, cmp.want); i >= 0 {
						t.Fatalf("bits=%d cols=%d hdr=%d %s: element %d = %08x, want %08x",
							bits, cols, hi, cmp.name, i,
							math.Float32bits(cmp.got[i]), math.Float32bits(cmp.want[i]))
					}
				}
			}
		}
	}
}

// TestQuantDecodeUnalignedOffsets drives the word-wide decode through
// packed storage that begins at every byte offset mod 8, so the
// unaligned 8-byte loads (and the asm kernels' unaligned vector stores
// into the accumulator) see every misalignment class.
func TestQuantDecodeUnalignedOffsets(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(11))
	const cols = 29
	for off := 0; off < 8; off++ {
		// rowStride(int8) = 29, deliberately odd: row r begins at byte
		// off + 29r, hitting varied alignments.
		rows := 8
		backing := make([]byte, off+rows*cols)
		copy(backing[off:], packedRow(rng, rows*cols))
		packed := backing[off : off+rows*cols]
		scales := make([]uint16, rows)
		biases := make([]uint16, rows)
		for r := 0; r < rows; r++ {
			scales[r], biases[r] = 0x3c01, 0xbc00
		}
		q, err := quant.NewFromParts(rows, cols, quant.Bits8, scales, biases, packed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			tensor.SetKernel(tensor.KernelGeneric)
			want := make([]float32, cols)
			q.AccumulateRow(want, r)
			tensor.SetKernel(tensor.KernelVector)
			got := make([]float32, cols)
			q.AccumulateRow(got, r)
			if i := DiffFloat32(got, want); i >= 0 {
				t.Fatalf("off=%d row=%d: element %d = %08x, want %08x",
					off, r, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestQuantRoundTripQuantized runs the differential on genuinely
// quantized data (QuantizeRows output rather than synthetic headers),
// the path production tables take.
func TestQuantRoundTripQuantized(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []quant.Bits{quant.Bits8, quant.Bits4} {
		const rows, cols = 40, 21
		data := make([]float32, rows*cols)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
		}
		q := quant.QuantizeRows(data, rows, cols, bits)
		for r := 0; r < rows; r++ {
			tensor.SetKernel(tensor.KernelGeneric)
			want := make([]float32, cols)
			q.AccumulateRow(want, r)
			tensor.SetKernel(tensor.KernelVector)
			got := make([]float32, cols)
			q.AccumulateRow(got, r)
			if i := DiffFloat32(got, want); i >= 0 {
				t.Fatalf("bits=%d row=%d: element %d differs", bits, r, i)
			}
		}
	}
}
