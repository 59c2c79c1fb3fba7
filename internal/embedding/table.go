// Package embedding implements the sparse-parameter substrate of the
// recommendation models: embedding tables, the SparseLengthsSum (SLS)
// family of lookup-and-pool operators, quantized table backends, and
// row-sharded table views used when a single table is partitioned across
// multiple sparse shards (paper Section III-A1: "the sparse feature IDs
// are split and sent to the appropriate RPC operator based on a hashing
// function ... implemented by partitioning embedding table rows with a
// simple modulus operator across shards").
package embedding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/quant"
)

// Table is the interface shared by all embedding-table backends: dense
// fp32, quantized, and row-sharded views. A table is a Rows×Dim matrix of
// learned sparse parameters addressed by row index.
type Table interface {
	// NumRows returns the number of hash buckets.
	NumRows() int
	// Dim returns the embedding vector dimension.
	Dim() int
	// AccumulateRow adds row idx into acc (len(acc) == Dim()).
	AccumulateRow(acc []float32, idx int)
	// Bytes returns the storage footprint in bytes.
	Bytes() int64
}

// Dense is an uncompressed float32 embedding table.
type Dense struct {
	RowsN, DimN int
	Data        []float32
}

// NewDense allocates a zeroed rows×dim table.
func NewDense(rows, dim int) *Dense {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embedding: invalid table shape %dx%d", rows, dim))
	}
	return &Dense{RowsN: rows, DimN: dim, Data: make([]float32, rows*dim)}
}

// NewDenseRandom allocates a rows×dim table with values drawn uniformly
// from [-scale, scale) using rng. Deterministic given the rng seed.
func NewDenseRandom(rng *rand.Rand, rows, dim int, scale float32) *Dense {
	t := NewDense(rows, dim)
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// NumRows implements Table.
func (t *Dense) NumRows() int { return t.RowsN }

// Dim implements Table.
func (t *Dense) Dim() int { return t.DimN }

// Row returns a view of row idx.
func (t *Dense) Row(idx int) []float32 {
	return t.Data[idx*t.DimN : (idx+1)*t.DimN]
}

// AccumulateRow implements Table.
func (t *Dense) AccumulateRow(acc []float32, idx int) {
	row := t.Row(idx)
	_ = acc[len(row)-1]
	for i, v := range row {
		acc[i] += v
	}
}

// Bytes implements Table.
func (t *Dense) Bytes() int64 { return int64(len(t.Data)) * 4 }

// RowRangeStride returns the wire bytes per row when streaming row ranges.
func (t *Dense) RowRangeStride() int { return 4 * t.DimN }

// AppendRowRange appends rows [lo, hi) in the wire layout (little-endian
// float32 bits per value) — the fp32 case of the encoded row stream the
// quant backends expose under the same method names.
func (t *Dense) AppendRowRange(dst []byte, lo, hi int) []byte {
	if lo < 0 || hi > t.RowsN || lo > hi {
		panic(fmt.Sprintf("embedding: row range [%d, %d) of %d", lo, hi, t.RowsN))
	}
	off := len(dst)
	dst = append(dst, make([]byte, (hi-lo)*t.RowRangeStride())...)
	for i, v := range t.Data[lo*t.DimN : hi*t.DimN] {
		binary.LittleEndian.PutUint32(dst[off+4*i:], math.Float32bits(v))
	}
	return dst
}

// SetRowRange writes raw wire-layout rows starting at row lo and returns
// how many rows it decoded.
func (t *Dense) SetRowRange(lo int, raw []byte) (int, error) {
	stride := t.RowRangeStride()
	if len(raw)%stride != 0 {
		return 0, fmt.Errorf("embedding: %d raw bytes not a multiple of row stride %d", len(raw), stride)
	}
	rows := len(raw) / stride
	if lo < 0 || lo+rows > t.RowsN {
		return 0, fmt.Errorf("embedding: row range [%d, %d) of %d", lo, lo+rows, t.RowsN)
	}
	for i := range rows * t.DimN {
		t.Data[lo*t.DimN+i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return rows, nil
}

// Quantize returns a quantized backend encoding this table at the given
// width, leaving the receiver unmodified.
func (t *Dense) Quantize(bits quant.Bits) *Quantized {
	return &Quantized{enc: quant.QuantizeRows(t.Data, t.RowsN, t.DimN, bits)}
}

// ToFP16 returns a half-precision backend encoding this table, leaving
// the receiver unmodified — the fp16 cold tier of the tiered store.
func (t *Dense) ToFP16() *FP16 {
	return &FP16{enc: quant.EncodeFP16Rows(t.Data, t.RowsN, t.DimN)}
}

// RowDecoder is implemented by backends that can materialize one decoded
// row directly (no accumulate). The tiered store's hot-row cache requires
// it: a cached row must hold the exact decoded values, so a cache hit and
// a cache miss contribute bitwise-identical terms to the pooling sum.
type RowDecoder interface {
	// DecodeRow writes row idx into dst (len(dst) == Dim()).
	DecodeRow(dst []float32, idx int)
}

// DecodeRow implements RowDecoder.
func (t *Dense) DecodeRow(dst []float32, idx int) { copy(dst, t.Row(idx)) }

// FP16 is an embedding table backed by half-precision storage. Lookups
// decode on the fly, fused into pooling.
type FP16 struct {
	enc *quant.FP16Rows
}

// NumRows implements Table.
func (t *FP16) NumRows() int { return t.enc.Rows }

// Dim implements Table.
func (t *FP16) Dim() int { return t.enc.Cols }

// AccumulateRow implements Table.
func (t *FP16) AccumulateRow(acc []float32, idx int) { t.enc.AccumulateRow(acc, idx) }

// DecodeRow implements RowDecoder.
func (t *FP16) DecodeRow(dst []float32, idx int) { t.enc.DequantizeRowInto(dst, idx) }

// Bytes implements Table.
func (t *FP16) Bytes() int64 { return t.enc.Bytes() }

// Encoding exposes the underlying fp16 storage (for serialization and
// migration streaming).
func (t *FP16) Encoding() *quant.FP16Rows { return t.enc }

// FP16FromEncoding wraps reconstructed fp16 storage as a table.
func FP16FromEncoding(enc *quant.FP16Rows) *FP16 { return &FP16{enc: enc} }

// Quantized is an embedding table backed by row-wise linear quantized
// storage. Lookups dequantize on the fly, fused into pooling.
type Quantized struct {
	enc *quant.RowQuantized
}

// NumRows implements Table.
func (t *Quantized) NumRows() int { return t.enc.Rows }

// Dim implements Table.
func (t *Quantized) Dim() int { return t.enc.Cols }

// AccumulateRow implements Table.
func (t *Quantized) AccumulateRow(acc []float32, idx int) {
	t.enc.AccumulateRow(acc, idx)
}

// Bytes implements Table.
func (t *Quantized) Bytes() int64 { return t.enc.Bytes() }

// DecodeRow implements RowDecoder.
func (t *Quantized) DecodeRow(dst []float32, idx int) { t.enc.DequantizeRowInto(dst, idx) }

// Encoding exposes the underlying row-quantized encoding (for
// serialization).
func (t *Quantized) Encoding() *quant.RowQuantized { return t.enc }

// QuantizedFromEncoding reconstructs a quantized table from serialized
// components.
func QuantizedFromEncoding(rows, cols, bits int, scales, biases []uint16, packed []byte) (*Quantized, error) {
	enc, err := quant.NewFromParts(rows, cols, quant.Bits(bits), scales, biases, packed)
	if err != nil {
		return nil, err
	}
	return &Quantized{enc: enc}, nil
}
