// Package embedding implements the sparse-parameter substrate of the
// recommendation models: embedding tables, the SparseLengthsSum (SLS)
// family of lookup-and-pool operators over fp32 tables and quant's row
// encodings, and row-sharded table views used when a single table is
// partitioned across multiple sparse shards (paper Section III-A1: "the
// sparse feature IDs are split and sent to the appropriate RPC operator
// based on a hashing function ... implemented by partitioning embedding
// table rows with a simple modulus operator across shards").
package embedding

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/mmapfile"
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
//
// A table NewDenseRandomPart builds keeps its rows in an anonymous mapping
// rather than on the Go heap, and the GC does not trace into a mapping.
// So a view of a model table's Data — a Row, a sub-slice, a pointer into
// it — is valid while its table is reachable: a function that keeps only
// a view across a call keeps the table alive past the view's last use
// (runtime.KeepAlive), as the methods below do.
type Dense struct {
	RowsN, DimN int
	Data        []float32
	// mapping is the anonymous region Data views, or nil for heap rows.
	// Copies of the struct share it; its finalizer unmaps the region once
	// no table refers to it.
	mapping *mmapfile.File
}

// NewDense allocates a zeroed rows×dim table.
func NewDense(rows, dim int) *Dense {
	if rows <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embedding: invalid table shape %dx%d", rows, dim))
	}
	return &Dense{RowsN: rows, DimN: dim, Data: make([]float32, rows*dim)}
}

// NewDenseRandom allocates a rows×dim table holding DrawRandom's draw of
// (seed, table): the n = 1 case of NewDenseRandomPart.
func NewDenseRandom(seed int64, table, rows, dim int, scale float32) *Dense {
	return NewDenseRandomPart(seed, table, rows, dim, 1, 0, scale)
}

// A table too large for one shard is split into row-partitions by the
// paper's "simple modulus operator". Because the pooling operation is a
// sum, pooling each part's hits independently and summing the partial
// results reproduces the unsharded pooling exactly; that algebraic
// identity is what makes modulus row-sharding transparent to the model.

// RowPart is the modulus row rule: logical row r of a table split n ways
// lives in part r % n, at local row r / n there.
func RowPart(r, n int) (part, local int) { return r % n, r / n }

// PartRowCount returns how many of a table's rows part p of n holds.
func PartRowCount(rows, n, p int) int {
	if p < rows%n {
		return rows/n + 1
	}
	return rows / n
}

// NewDenseRandomPart allocates part p of n of a rows×dim table (local row
// l is the table's row l·n+p, RowPart; a part with no rows keeps one zero
// row) holding DrawRandom's values of (seed, table), filled in chunks of
// rows on up to GOMAXPROCS goroutines in any order. It makes every model
// table and sparse unit, so a part of a page or more gets an anonymous
// mapping of its own (newDenseMapped), freed once the part is garbage.
func NewDenseRandomPart(seed int64, table, rows, dim, n, p int, scale float32) *Dense {
	if rows <= 0 || n < 1 || p < 0 || p >= n {
		panic(fmt.Sprintf("embedding: part %d of %d of a %d-row table", p, n, rows))
	}
	const drawChunk = 64 << 10 // values a goroutine draws per claim
	local := PartRowCount(rows, n, p)
	t := newDenseMapped(max(local, 1), dim)
	chunkRows := max(drawChunk/dim, 1)
	chunks := (local + chunkRows - 1) / chunkRows
	var next atomic.Int64
	fill := func() {
		for c := int(next.Add(1)) - 1; c < chunks; c = int(next.Add(1)) - 1 {
			lo, hi := c*chunkRows, min((c+1)*chunkRows, local)
			if n == 1 { // the chunk's rows are contiguous in the table
				DrawRandom(t.Data[lo*dim:hi*dim], seed, table, lo*dim, scale)
				continue
			}
			for l := lo; l < hi; l++ {
				DrawRandom(t.Row(l), seed, table, (l*n+p)*dim, scale)
			}
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), chunks) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	return t
}

// DrawRandom writes values [off, off+len(dst)) of the uniform draw from
// [-scale, scale) in which value i is a pure function of (seed, table, i):
// the top 24 bits of a SplitMix64 hash of a counter, as a signed multiple
// of scale/2^23. It is the one place a table value is computed, so a
// table's values depend on no other table, and any window of a table can
// be drawn without the rest.
func DrawRandom(dst []float32, seed int64, table, off int, scale float32) {
	key := mix64(mix64(uint64(seed)) + uint64(table))
	step := scale / (1 << 23) // exact: a power-of-two quotient
	for i := range dst {
		z := key + uint64(off+i+1)*0x9e3779b97f4a7c15
		dst[i] = float32(int32(mix64(z)>>40)-1<<23) * step
	}
}

// mix64 is SplitMix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// liveMappings counts the anonymous regions newDenseMapped made that are
// not yet unmapped.
var liveMappings atomic.Int64

// newDenseMapped allocates a zeroed rows×dim table whose rows live in an
// anonymous mapping the table owns, unmapped by a finalizer once no table
// refers to it. A table smaller than a page stays on the heap (NewDense).
// Only storage sized by the model or its plan belongs here: mapped bytes
// are outside the GC's pacing, so storage a peer sizes stays on the heap.
func newDenseMapped(rows, dim int) *Dense {
	if rows <= 0 || dim <= 0 || rows*dim < os.Getpagesize()/4 {
		return NewDense(rows, dim)
	}
	f := mmapfile.Anon(4 * rows * dim)
	t := &Dense{RowsN: rows, DimN: dim, Data: mmapfile.Float32s(f.Bytes())}
	if f.Mapped() { // else the heap fallback's bytes, kept alive by Data
		t.mapping = f
		liveMappings.Add(1)
		runtime.SetFinalizer(f, func(f *mmapfile.File) {
			if err := f.Close(); err != nil {
				panic(fmt.Sprintf("embedding: unmapping a table: %v", err))
			}
			liveMappings.Add(-1)
		})
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
	runtime.KeepAlive(t)
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
	runtime.KeepAlive(t)
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

// Quantize returns this table encoded row-wise at the given width,
// leaving the receiver unmodified. The encoding serves lookups itself.
func (t *Dense) Quantize(bits quant.Bits) *quant.RowQuantized {
	q := quant.QuantizeRows(t.Data, t.RowsN, t.DimN, bits)
	runtime.KeepAlive(t)
	return q
}

// ToFP16 returns this table encoded at half precision, leaving the
// receiver unmodified — the fp16 cold tier of the tiered store.
func (t *Dense) ToFP16() *quant.FP16Rows {
	f := quant.EncodeFP16Rows(t.Data, t.RowsN, t.DimN)
	runtime.KeepAlive(t)
	return f
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
func (t *Dense) DecodeRow(dst []float32, idx int) {
	copy(dst, t.Row(idx))
	runtime.KeepAlive(t)
}

// The quant encodings are tables in their own right.
var (
	_ Table      = (*quant.FP16Rows)(nil)
	_ RowDecoder = (*quant.FP16Rows)(nil)
	_ Table      = (*quant.RowQuantized)(nil)
	_ RowDecoder = (*quant.RowQuantized)(nil)
)
