package quant

import (
	"encoding/binary"
	"fmt"
)

// FP16Rows is an embedding table stored as IEEE 754 binary16 values —
// the half-precision cold tier of the serving path's tiered store. It
// serves lookups itself (embedding.Table), decoding on the fly. Unlike
// the row-wise linear encodings (RowQuantized), fp16 needs no per-row
// header and its reconstruction error is relative (≤ 2^-11 of the value
// magnitude for normal-range values), so it is the conservative choice
// when a table's quantization error budget rules int8 out.
type FP16Rows struct {
	Rows, Cols int
	// Data holds Rows×Cols binary16 values, row-major.
	Data []uint16
}

// fp16MaxFinite is the largest finite binary16 magnitude (65504). Encoding
// saturates to it instead of overflowing to Inf: an infinite embedding
// value would poison every pooled sum it joins.
const fp16MaxFinite = 65504.0

// f32to16sat converts with round-to-nearest-even, saturating overflow to
// ±fp16MaxFinite (NaN stays NaN).
func f32to16sat(f float32) uint16 {
	h := f32to16(f)
	if h&0x7fff == 0x7c00 && !(f != f) { // ±Inf from a finite (or infinite) input
		return h&0x8000 | 0x7bff
	}
	return h
}

// EncodeFP16Rows encodes a rows×cols float32 table (row-major) to fp16
// with saturation.
func EncodeFP16Rows(data []float32, rows, cols int) *FP16Rows {
	out := &FP16Rows{Rows: rows, Cols: cols, Data: make([]uint16, rows*cols)}
	out.Encode(data)
	return out
}

// Encode encodes a Rows×Cols float32 table (row-major) to fp16 with
// saturation into f's storage, over what it held.
func (f *FP16Rows) Encode(data []float32) {
	if len(data) != f.Rows*f.Cols {
		panic(fmt.Sprintf("quant: data length %d != %dx%d", len(data), f.Rows, f.Cols))
	}
	for i, v := range data {
		f.Data[i] = f32to16sat(v)
	}
}

// FP16FromParts reconstructs an FP16Rows table from serialized components,
// validating shape consistency.
func FP16FromParts(rows, cols int, data []uint16) (*FP16Rows, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("quant: invalid shape %dx%d", rows, cols)
	}
	if len(data) != rows*cols {
		return nil, fmt.Errorf("quant: %d fp16 values do not match %dx%d", len(data), rows, cols)
	}
	return &FP16Rows{Rows: rows, Cols: cols, Data: data}, nil
}

// NewFP16Rows allocates a zeroed table — migration staging storage.
func NewFP16Rows(rows, cols int) *FP16Rows {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("quant: invalid table shape %dx%d", rows, cols))
	}
	return &FP16Rows{Rows: rows, Cols: cols, Data: make([]uint16, rows*cols)}
}

// NumRows returns the table's row count.
func (f *FP16Rows) NumRows() int { return f.Rows }

// Dim returns the table's row width.
func (f *FP16Rows) Dim() int { return f.Cols }

// DecodeRow decodes row r into dst, which must have length Cols.
func (f *FP16Rows) DecodeRow(dst []float32, r int) {
	if len(dst) != f.Cols {
		panic(fmt.Sprintf("quant: dst length %d != cols %d", len(dst), f.Cols))
	}
	src := f.Data[r*f.Cols : (r+1)*f.Cols]
	for c, h := range src {
		dst[c] = f16to32(h)
	}
}

// AccumulateRow adds row r (decoded on the fly) into acc.
func (f *FP16Rows) AccumulateRow(acc []float32, r int) {
	src := f.Data[r*f.Cols : (r+1)*f.Cols]
	for c, h := range src {
		acc[c] += f16to32(h)
	}
}

// Bytes returns the storage footprint.
func (f *FP16Rows) Bytes() int64 { return int64(len(f.Data)) * 2 }

// RowRangeStride returns the wire bytes per row when streaming row ranges.
func (f *FP16Rows) RowRangeStride() int { return 2 * f.Cols }

// AppendRowRange appends rows [lo, hi) in the wire layout (little-endian
// binary16 per value) — the migration protocol's encoded row stream.
func (f *FP16Rows) AppendRowRange(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi > f.Rows || lo > hi {
		panic(fmt.Sprintf("quant: row range [%d, %d) of %d", lo, hi, f.Rows))
	}
	off := len(dst)
	dst = append(dst, make([]byte, (hi-lo)*f.RowRangeStride())...)
	for i, h := range f.Data[lo*f.Cols : hi*f.Cols] {
		binary.LittleEndian.PutUint16(dst[off+2*i:], h)
	}
	return dst
}

// SetRowRange writes raw wire-layout rows starting at row lo and returns
// how many rows it decoded.
func (f *FP16Rows) SetRowRange(lo int, raw []byte) (int, error) {
	stride := f.RowRangeStride()
	if len(raw)%stride != 0 {
		return 0, fmt.Errorf("quant: %d raw bytes not a multiple of row stride %d", len(raw), stride)
	}
	rows := len(raw) / stride
	if lo < 0 || lo+rows > f.Rows {
		return 0, fmt.Errorf("quant: row range [%d, %d) of %d", lo, lo+rows, f.Rows)
	}
	for i := range rows * f.Cols {
		f.Data[lo*f.Cols+i] = binary.LittleEndian.Uint16(raw[2*i:])
	}
	return rows, nil
}

// MaxErrorFP16 bounds the absolute reconstruction error of encoding a
// finite value of magnitude ≤ maxAbs: half a ulp at that magnitude for
// normal-range values, the subnormal half-step floor below, and the
// saturation gap above the finite range.
func MaxErrorFP16(maxAbs float32) float32 {
	if maxAbs > fp16MaxFinite {
		return maxAbs - fp16MaxFinite + fp16MaxFinite/2048
	}
	err := maxAbs / 2048 // 2^-11 relative
	if floor := float32(1.0 / (1 << 25)); err < floor {
		err = floor
	}
	return err
}
