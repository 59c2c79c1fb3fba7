//go:build linux && amd64

package kerneltest

import (
	"bytes"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/quant"
	"repro/internal/tensor"
)

// The row encoder's code kernel, reached by name so its output can end
// at a guard page too: QuantizeRows allocates its own.
//
//go:linkname encodeRows repro/internal/quant.encodeRows
func encodeRows(src *float32, cols, rows int, scale, bias *float32, dst *byte, levels float32, nibbles bool)

// TestQuantEncodeGuardPaged runs the row encoder with its input ending at
// a PROT_NONE page — QuantizeRows under every dispatch, whose range and
// code kernels read each row's tail by a masked load — and, on a host
// with AVX, the code kernel with its output ending at one, for both
// widths and every column count from 1 to 33: a tail that loaded or
// stored one lane past the row faults. The rows are built so every header is exact (lo −1, hi −1 +
// levels/128: scale 2⁻⁷, bias −1), so the kernel's codes are checked
// against the generic loop's packed bytes as well.
func TestQuantEncodeGuardPaged(t *testing.T) {
	defer func() {
		tensor.SetKernel(tensor.KernelAuto)
		gemmLanes = hostLanes
	}()
	rng := rand.New(rand.NewSource(13))
	ds := dispatches(t)
	for _, bits := range []quant.Bits{quant.Bits8, quant.Bits4} {
		levels := float32(int(1)<<bits - 1)
		for cols := 1; cols <= 33; cols++ {
			const rows = 5
			stride := cols
			if bits == quant.Bits4 {
				stride = (cols + 1) / 2
			}
			gd, data := GuardedFloat32(rows * cols)
			for r := 0; r < rows; r++ {
				row := data[r*cols : (r+1)*cols]
				for i := range row {
					row[i] = -1 + rng.Float32()*levels/128
				}
				// One column is the constant row [−1]: code 0 either way.
				row[cols-1] = -1 + levels/128
				row[0] = -1
			}
			tensor.SetKernel(tensor.KernelGeneric)
			want := quant.QuantizeRows(data, rows, cols, bits)
			for _, d := range ds {
				d.set()
				got := quant.QuantizeRows(data, rows, cols, bits)
				if !bytes.Equal(got.Packed, want.Packed) {
					t.Fatalf("%v bits=%d cols=%d: packed %x, want %x", d, bits, cols, got.Packed, want.Packed)
				}
			}

			scale, bias := make([]float32, rows), make([]float32, rows)
			for r := range scale {
				scale[r], bias[r] = 1.0/128, -1
			}
			if hostLanes > 0 {
				gp, packed := GuardedBytes(rows * stride)
				encodeRows(&data[0], cols, rows, &scale[0], &bias[0], &packed[0], levels, bits == quant.Bits4)
				if !bytes.Equal(packed, want.Packed) {
					t.Fatalf("encodeRows bits=%d cols=%d: packed %x, want %x", bits, cols, packed, want.Packed)
				}
				gp.Free()
			}
			gd.Free()
		}
	}
}
