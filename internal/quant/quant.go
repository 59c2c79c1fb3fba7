// Package quant implements the model-compression techniques the paper
// evaluates in Section VII-D / Table III: row-wise linear quantization of
// embedding tables to 8 or 4 bits, and magnitude-based pruning.
//
// The paper reports a 5.56× total size reduction for DRM1 when "all tables
// were row-wise linear quantized to at least 8-bits, and sufficiently large
// tables were quantized to 4-bits", with tables "manually pruned ... based
// on a threshold magnitude". Latency and CPU were marginally affected. The
// encodings here reproduce those storage ratios (plus an fp16 scale/bias
// header per row, as production embedding quantization uses) and are
// exercised on the lookup path so the latency effect is measured, not
// assumed.
package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Bits is the quantization width of an encoded table.
type Bits int

// Supported quantization widths. The production deployment in the paper
// uses 8-bit for all tables and 4-bit for sufficiently large ones.
const (
	Bits8 Bits = 8
	Bits4 Bits = 4
)

// RowQuantized is an embedding table encoded with row-wise linear
// quantization: each row stores packed unsigned integers plus a float16
// (scale, bias) pair such that value ≈ scale*q + bias. Headers are fp16,
// as in production embedding quantization, so they do not dominate
// small-dimension rows. It serves lookups itself (embedding.Table),
// dequantizing on the fly.
type RowQuantized struct {
	Rows, Cols int
	Bits       Bits
	// Scales and Biases hold one fp16 dequantization pair per row.
	Scales []uint16
	Biases []uint16
	// Packed holds the quantized codes, rowStride bytes per row.
	Packed    []byte
	rowStride int
}

// rowStride returns the packed bytes needed for cols codes at the width b.
func rowStrideFor(cols int, b Bits) int {
	switch b {
	case Bits8:
		return cols
	case Bits4:
		return (cols + 1) / 2
	default:
		panic(fmt.Sprintf("quant: unsupported width %d", b))
	}
}

// QuantizeRows encodes a rows×cols float32 table (row-major) with row-wise
// linear quantization at the given width.
//
// Per row: lo is the least of MaxFloat32 and the row's non-NaN values,
// hi the greatest of −MaxFloat32 and them (of a −0 and a +0, the one met
// first), the header is scale = (hi−lo)/levels
// (1 when 0) and bias = lo, both rounded to fp16, and each value v is
// encoded against the rounded header as x = (v−bias)/scale in float32,
// then the code is 0 for x < 0.5 or NaN, levels for x ≥ levels + 0.5,
// and floor(x + 0.5) between — math.Round of x clamped to [0, levels].
// The vector family's kernel (encode_amd64.s) and the generic loop
// below write the same bytes for every input; the package's tests hold
// both to the reference encoder they replaced.
func QuantizeRows(data []float32, rows, cols int, bits Bits) *RowQuantized {
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
	if tensor.VectorLanes() > 0 && len(data) > 0 {
		q.encodeVec(data)
	} else {
		q.encodeScalar(data)
	}
	return q
}

// levels is the largest code at the table's width.
func (q *RowQuantized) levels() float32 { return float32(int(1)<<q.Bits - 1) }

// header writes row r's fp16 (scale, bias) for the range [lo, hi] and
// returns the float32 values the row's codes are computed against: the
// rounded ones, so decode uses exactly the parameters the codes were
// computed with.
func (q *RowQuantized) header(r int, lo, hi, levels float32) (scale, bias float32) {
	scale = (hi - lo) / levels
	if scale == 0 {
		// Constant row: encode all-zero codes with bias = lo.
		scale = 1
	}
	q.Scales[r] = f32to16(scale)
	q.Biases[r] = f32to16(lo)
	scale = f16to32(q.Scales[r])
	if scale == 0 {
		scale = 1
		q.Scales[r] = f32to16(1)
	}
	return scale, f16to32(q.Biases[r])
}

// encodeScalar is the generic family's encoder.
func (q *RowQuantized) encodeScalar(data []float32) {
	levels := q.levels()
	for r := 0; r < q.Rows; r++ {
		row := data[r*q.Cols : (r+1)*q.Cols]
		lo, hi := minMax(row)
		scale, bias := q.header(r, lo, hi, levels)
		dst := q.Packed[r*q.rowStride : (r+1)*q.rowStride]
		if q.Bits == Bits8 {
			for c, v := range row {
				dst[c] = code(v, scale, bias, levels)
			}
			continue
		}
		c := 0
		for ; c+1 < len(row); c += 2 {
			dst[c/2] = code(row[c], scale, bias, levels) | code(row[c+1], scale, bias, levels)<<4
		}
		if c < len(row) {
			dst[c/2] = code(row[c], scale, bias, levels)
		}
	}
}

// minMax is the reference range scan: each strictly smaller (greater)
// value replaces the running bound, so NaNs are skipped and the first of
// equal values is kept.
func minMax(xs []float32) (lo, hi float32) {
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

// code encodes one value: math.Round((v−bias)/scale) clamped to [0,
// levels], without the round trip through math.Round. A float32 x ≥ 0.5
// plus 0.5 is exact in float64, so the truncation is floor(x + 0.5),
// which is math.Round for a positive x.
func code(v, scale, bias, levels float32) uint8 {
	x := (v - bias) / scale
	switch {
	case !(x >= 0.5):
		return 0
	case x >= levels+0.5:
		return uint8(levels)
	}
	return uint8(float64(x) + 0.5)
}

// NewFromParts reconstructs a RowQuantized table from its serialized
// components, validating shape consistency.
func NewFromParts(rows, cols int, bits Bits, scales, biases []uint16, packed []byte) (*RowQuantized, error) {
	if bits != Bits8 && bits != Bits4 {
		return nil, fmt.Errorf("quant: unsupported width %d", bits)
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("quant: invalid shape %dx%d", rows, cols)
	}
	stride := rowStrideFor(cols, bits)
	if len(scales) != rows || len(biases) != rows || len(packed) != rows*stride {
		return nil, fmt.Errorf("quant: component sizes (%d scales, %d biases, %d packed) do not match %dx%d @ %d bits",
			len(scales), len(biases), len(packed), rows, cols, bits)
	}
	return &RowQuantized{
		Rows: rows, Cols: cols, Bits: bits,
		Scales: scales, Biases: biases, Packed: packed, rowStride: stride,
	}, nil
}

// NewRowQuantizedEmpty allocates zeroed encoded storage of the given
// shape — migration staging for an int8/int4 cold tier, filled row range
// by row range via SetRowRange.
func NewRowQuantizedEmpty(rows, cols int, bits Bits) *RowQuantized {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("quant: invalid table shape %dx%d", rows, cols))
	}
	stride := rowStrideFor(cols, bits)
	return &RowQuantized{
		Rows: rows, Cols: cols, Bits: bits,
		Scales:    make([]uint16, rows),
		Biases:    make([]uint16, rows),
		Packed:    make([]byte, rows*stride),
		rowStride: stride,
	}
}

// RowRangeStride returns the wire bytes per row when streaming row
// ranges: the fp16 (scale, bias) header plus the packed codes.
func (q *RowQuantized) RowRangeStride() int { return 4 + q.rowStride }

// CodeStride returns the packed code bytes per row: row r's codes are
// Packed[r*CodeStride() : (r+1)*CodeStride()].
func (q *RowQuantized) CodeStride() int { return q.rowStride }

// AppendRowRange appends rows [lo, hi) in the wire layout (per row:
// little-endian fp16 scale, fp16 bias, then packed codes) — the encoded
// row stream the migration protocol moves so a transferred table stays
// bit-identical to the source's.
func (q *RowQuantized) AppendRowRange(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi > q.Rows || lo > hi {
		panic(fmt.Sprintf("quant: row range [%d, %d) of %d", lo, hi, q.Rows))
	}
	for r := lo; r < hi; r++ {
		var hdr [4]byte
		hdr[0], hdr[1] = byte(q.Scales[r]), byte(q.Scales[r]>>8)
		hdr[2], hdr[3] = byte(q.Biases[r]), byte(q.Biases[r]>>8)
		dst = append(dst, hdr[:]...)
		dst = append(dst, q.Packed[r*q.rowStride:(r+1)*q.rowStride]...)
	}
	return dst
}

// SetRowRange writes raw wire-layout rows starting at row lo and returns
// how many rows it decoded.
func (q *RowQuantized) SetRowRange(lo int, raw []byte) (int, error) {
	stride := q.RowRangeStride()
	if len(raw)%stride != 0 {
		return 0, fmt.Errorf("quant: %d raw bytes not a multiple of row stride %d", len(raw), stride)
	}
	rows := len(raw) / stride
	if lo < 0 || lo+rows > q.Rows {
		return 0, fmt.Errorf("quant: row range [%d, %d) of %d", lo, lo+rows, q.Rows)
	}
	for i := 0; i < rows; i++ {
		r := lo + i
		src := raw[i*stride : (i+1)*stride]
		q.Scales[r] = uint16(src[0]) | uint16(src[1])<<8
		q.Biases[r] = uint16(src[2]) | uint16(src[3])<<8
		copy(q.Packed[r*q.rowStride:(r+1)*q.rowStride], src[4:])
	}
	return rows, nil
}

// NumRows returns the table's row count.
func (q *RowQuantized) NumRows() int { return q.Rows }

// Dim returns the table's row width.
func (q *RowQuantized) Dim() int { return q.Cols }

// DecodeRow decodes row r into dst, which must have length Cols.
// This is the hot path used by quantized SLS lookups and the tiered
// store's cache fills. Dispatches between the scalar decoders below and
// the word-wide ones in decode_vector.go; both produce bitwise-identical
// values, so a cached row never depends on which kernel filled it.
func (q *RowQuantized) DecodeRow(dst []float32, r int) {
	if len(dst) != q.Cols {
		panic(fmt.Sprintf("quant: dst length %d != cols %d", len(dst), q.Cols))
	}
	scale, bias := f16to32(q.Scales[r]), f16to32(q.Biases[r])
	src := q.Packed[r*q.rowStride : (r+1)*q.rowStride]
	if vectorActive() {
		switch q.Bits {
		case Bits8:
			dequantizeRow8Vec(dst, src, scale, bias, q.Cols)
		case Bits4:
			dequantizeRow4Vec(dst, src, scale, bias, q.Cols)
		}
		return
	}
	q.dequantizeRowScalar(dst, src, scale, bias)
}

// dequantizeRowScalar is the generic reference decoder.
func (q *RowQuantized) dequantizeRowScalar(dst []float32, src []byte, scale, bias float32) {
	switch q.Bits {
	case Bits8:
		for c := 0; c < q.Cols; c++ {
			dst[c] = float32(scale*float32(src[c])) + bias
		}
	case Bits4:
		for c := 0; c < q.Cols; c++ {
			b := src[c/2]
			var code uint8
			if c%2 == 0 {
				code = b & 0x0f
			} else {
				code = b >> 4
			}
			dst[c] = float32(scale*float32(code)) + bias
		}
	}
}

// AccumulateRow adds row r (dequantized on the fly) into acc, fusing the
// dequantize with the SLS pooling sum so no temporary row is
// materialized. Kernel-dispatched like DecodeRow.
func (q *RowQuantized) AccumulateRow(acc []float32, r int) {
	scale, bias := f16to32(q.Scales[r]), f16to32(q.Biases[r])
	src := q.Packed[r*q.rowStride : (r+1)*q.rowStride]
	if vectorActive() {
		q.accumulateRowVec(acc, src, scale, bias)
		return
	}
	q.accumulateRowScalar(acc, src, scale, bias)
}

// AccumulateBag adds every listed row into acc in index order — the
// whole-bag SLS pooling path. Resolving kernel dispatch once per bag
// rather than once per row keeps the dispatch load off the per-row cost;
// the accumulation order and arithmetic are exactly AccumulateRow's.
// Row indices must be in [0, Rows); like AccumulateRow, an out-of-range
// index panics.
func (q *RowQuantized) AccumulateBag(acc []float32, indices []int32) {
	vec := vectorActive()
	for _, idx := range indices {
		r := int(idx)
		scale, bias := f16to32(q.Scales[r]), f16to32(q.Biases[r])
		src := q.Packed[r*q.rowStride : (r+1)*q.rowStride]
		if vec {
			q.accumulateRowVec(acc, src, scale, bias)
		} else {
			q.accumulateRowScalar(acc, src, scale, bias)
		}
	}
}

// accumulateRowVec routes one row through the word-wide decoders.
func (q *RowQuantized) accumulateRowVec(acc []float32, src []byte, scale, bias float32) {
	switch q.Bits {
	case Bits8:
		accumulateRow8Vec(acc, src, scale, bias, q.Cols)
	case Bits4:
		accumulateRow4Vec(acc, src, scale, bias, q.Cols)
	}
}

// accumulateRowScalar is the generic reference accumulator.
func (q *RowQuantized) accumulateRowScalar(acc []float32, src []byte, scale, bias float32) {
	switch q.Bits {
	case Bits8:
		for c := 0; c < q.Cols; c++ {
			acc[c] += float32(scale*float32(src[c])) + bias
		}
	case Bits4:
		for c := 0; c < q.Cols; c++ {
			b := src[c/2]
			var code uint8
			if c%2 == 0 {
				code = b & 0x0f
			} else {
				code = b >> 4
			}
			acc[c] += float32(scale*float32(code)) + bias
		}
	}
}

// Bytes returns the total storage footprint of the encoded table,
// including the per-row scale/bias headers.
func (q *RowQuantized) Bytes() int64 {
	return int64(len(q.Packed)) + int64(len(q.Scales))*2 + int64(len(q.Biases))*2
}

// MaxError returns the worst-case absolute reconstruction error bound for
// linear quantization of a row with range rangeWidth at the given width:
// half a quantization step.
func MaxError(rangeWidth float32, bits Bits) float32 {
	levels := float32(int(1)<<bits - 1)
	return rangeWidth / levels / 2
}

// PruneMagnitude zeroes every element of data whose absolute value is
// below threshold and returns the number of elements pruned. The paper's
// tables are "manually pruned based on a threshold magnitude"; pruned rows
// compress to nothing under the row-wise encoding (constant-zero rows).
func PruneMagnitude(data []float32, threshold float32) int {
	n := 0
	for i, v := range data {
		if v < 0 {
			v = -v
		}
		if v < threshold {
			if data[i] != 0 {
				n++
			}
			data[i] = 0
		}
	}
	return n
}
