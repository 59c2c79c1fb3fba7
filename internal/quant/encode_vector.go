package quant

// The vector family's row encoder: QuantizeRows under tensor's vector
// kernels on a host with AVX (tensor.VectorLanes > 0). A block of rows
// runs in three passes — the rows' ranges in the assembly (rangeRows),
// their fp16 headers in Go (header, shared with the generic loop, so the
// header bits are one code path), then their codes in the assembly
// (encodeRows) — so a row of 8 or 16 values costs one or two vector
// loads a pass, not a call per row.
//
// Why the bytes do not move (encode_amd64.s spells out each step):
//   - Range. VMINPS/VMAXPS with the value as first source and the
//     running bound as second is the reference scan's "replace on
//     strictly less (greater)" per lane, NaNs skipped; the lanes are
//     then reduced. Equal bounds have equal bits except a ±0 pair, which
//     the reduction meets in lane order rather than row order, so a row
//     with a zero extreme is rescanned by minMax.
//   - Codes. x = (v−bias)/scale is VSUBPS then VDIVPS, the same IEEE
//     float32 operations the Go loop compiles to. The code is 0 where x
//     is not ≥ 0.5 (an ordered compare: NaN is not), else the truncation
//     of min(x, levels) + 0.5 in float32: for x ≥ 0.5 that sum cannot
//     round up across an integer (its rounding error is below half the
//     spacing of x's binade, and the integers are farther), so it is
//     floor(x + 0.5) — code's result.

// encodeBlockRows is how many rows one pass of the kernels takes: its
// ranges and headers live on the stack.
const encodeBlockRows = 128

// encodeVec is the vector family's encoder; len(data) > 0.
func (q *RowQuantized) encodeVec(data []float32) {
	var lo, hi, scale, bias [encodeBlockRows]float32
	levels, nibbles := q.levels(), q.Bits == Bits4
	for r0 := 0; r0 < q.Rows; r0 += encodeBlockRows {
		n := min(encodeBlockRows, q.Rows-r0)
		src := data[r0*q.Cols : (r0+n)*q.Cols]
		dst := q.Packed[r0*q.rowStride : (r0+n)*q.rowStride]
		rangeRows(&src[0], q.Cols, n, &lo[0], &hi[0])
		for i := 0; i < n; i++ {
			l, h := lo[i], hi[i]
			if l == 0 || h == 0 {
				l, h = minMax(src[i*q.Cols : (i+1)*q.Cols])
			}
			scale[i], bias[i] = q.header(r0+i, l, h, levels)
		}
		encodeRows(&src[0], q.Cols, n, &scale[0], &bias[0], &dst[0], levels, nibbles)
	}
}
