package quant

import (
	"fmt"
	"math"
)

// quantizeRowsRef is the reference encoder: the scalar loop QuantizeRows
// ran before its kernels, kept verbatim as the oracle the differential
// test and FuzzQuantizeRowsMatchesReference hold every kernel family and
// lane width to, byte for byte. It keeps its own range scan: the
// encoder's minMax is also its fallback, and a bug there must not move
// the expectation with it.
func quantizeRowsRef(data []float32, rows, cols int, bits Bits) *RowQuantized {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("quant: data length %d != %dx%d", len(data), rows, cols))
	}
	stride := rowStrideFor(cols, bits)
	q := &RowQuantized{
		Rows: rows, Cols: cols, Bits: bits,
		Scales:    make([]uint16, rows),
		Biases:    make([]uint16, rows),
		Packed:    make([]byte, rows*stride),
		rowStride: stride,
	}
	levels := float32(int(1)<<bits - 1)
	for r := 0; r < rows; r++ {
		row := data[r*cols : (r+1)*cols]
		lo, hi := minMaxRef(row)
		scale := (hi - lo) / levels
		if scale == 0 {
			// Constant row: encode all-zero codes with bias = lo.
			scale = 1
		}
		// Encode against the fp16-rounded header values so decode uses
		// exactly the parameters the codes were computed with.
		q.Scales[r] = f32to16(scale)
		q.Biases[r] = f32to16(lo)
		scale = f16to32(q.Scales[r])
		if scale == 0 {
			scale = 1
			q.Scales[r] = f32to16(1)
		}
		bias := f16to32(q.Biases[r])
		dst := q.Packed[r*stride : (r+1)*stride]
		for c, v := range row {
			code := uint8(clampRound((v-bias)/scale, levels))
			switch bits {
			case Bits8:
				dst[c] = code
			case Bits4:
				if c%2 == 0 {
					dst[c/2] = code
				} else {
					dst[c/2] |= code << 4
				}
			}
		}
	}
	return q
}

func minMaxRef(xs []float32) (lo, hi float32) {
	lo, hi = math.MaxFloat32, -math.MaxFloat32
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func clampRound(x, max float32) float32 {
	v := float32(math.Round(float64(x)))
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}
