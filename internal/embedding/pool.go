package embedding

import (
	"fmt"
	"unsafe"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// PoolEntry is one table's lookups in a Pool call: the bags to pool, in
// flat form, and where their pooled rows go.
type PoolEntry struct {
	Table Table
	// Lens and Indices are the bags (see BagList): bag b pools the next
	// Lens[b] of Indices. Pool only reads them — they may be views of a
	// received frame.
	Lens    []int32
	Indices []int32
	// Out receives the pooled rows, Dim floats each. With Stride 0 they
	// are packed: one row per non-empty bag, in bag order, and nothing at
	// all for an empty bag, so len(Out) is (non-empty bags)×Dim. With a
	// positive Stride bag b's row starts at Out[b*Stride] and an empty
	// bag's row is zeroed (Stride == Dim is the dense len(Lens)×Dim
	// matrix; a wider stride is a column range of a wider matrix).
	Out    []float32
	Stride int
}

// Pool executes SparseLengthsSum for a group of tables: every non-empty
// bag's rows are summed, in index order starting from +0, into that
// bag's row of the entry's Out. Its cost follows the lookups, not
// tables × bags: an empty bag of a packed entry is neither written nor
// zeroed, and the bags are walked once.
//
// A bag's length and indices are validated before any of them is turned
// into an address: a negative length, lengths that overrun Indices (or
// leave some of it over), an out-of-range index, a table shorter than its
// shape or an Out that does not fit its bags panics, with earlier bags
// possibly already pooled (the caller discards Out with the request).
//
// Kernels. An fp32 Dense bag is summed by one row-sum: under the vector
// family on an AVX host, for a Dim that is a multiple of 8, an assembly
// kernel holds the sum in registers and stores the row once
// (pool_amd64.s); everywhere else, and under the generic family, a Go
// loop zeroes the row and adds into it. Both perform, per element,
// the same float32 additions in the same order, and when an add meets
// two NaNs the accumulator's payload survives in both, so they agree bit
// for bit (internal/kerneltest's TestSLSPackedDifferential). A quantized
// bag (int8 or int4) is summed by quant's RowQuantized.AccumulateBag into
// the cleared row: index order, the per-width vector or scalar decode. A
// tiered table pools through its own AccumulateBag and any other backend
// row by row through AccumulateRow, both into a zeroed row.
//
// Prefetch. A shard's call reads a few random rows from each of many
// tables — about three per table, every one a cache miss and most a TLB
// miss — so no per-table loop can look ahead. Under the vector family a
// Dense or quantized bag is therefore not summed when the walk reaches
// it: it joins a chunk of bags worth about prefetchDistance lookups,
// across table boundaries. When a chunk fills, every line its rows will
// read — an fp32 row's values; a quantized row's fp16 scale, fp16 bias
// and codes — is prefetched in one burst, back to back, so the misses and
// the page walks under them overlap, and the previous chunk, prefetched a
// chunk ago, is summed.
func Pool(entries []PoolEntry) {
	// Dispatch is resolved once per call, so a SetKernel racing it never
	// splits a call across families.
	lanes := tensor.VectorLanes()
	q := sumQueue{prefetch: havePoolAsm && tensor.ActiveKernel() == tensor.KernelVector}
	for i := range entries {
		e := &entries[i]
		rows, dim := e.Table.NumRows(), e.Table.Dim()
		if e.Stride != 0 && e.Stride < dim {
			panic(fmt.Sprintf("embedding: out stride %d < dim %d", e.Stride, dim))
		}
		job, queued := jobFor(e.Table, rows, dim, lanes)
		tiered, _ := e.Table.(*TieredTable)
		off, pos := 0, 0
		for b, n := range e.Lens {
			if n == 0 && e.Stride == 0 {
				continue // a packed entry holds nothing for an empty bag
			}
			if n < 0 || int(n) > len(e.Indices)-pos {
				panic(fmt.Sprintf("embedding: bag %d of length %d at index %d of %d", b, n, pos, len(e.Indices)))
			}
			indices := e.Indices[pos : pos+int(n)]
			pos += int(n)
			if e.Stride > 0 {
				off = b * e.Stride
			}
			if off+dim > len(e.Out) {
				panic(fmt.Sprintf("embedding: out length %d short of bag %d's row at %d, dim %d", len(e.Out), b, off, dim))
			}
			dst := e.Out[off : off+dim]
			if e.Stride == 0 {
				off += dim
			}
			if len(indices) == 0 {
				clear(dst)
				continue
			}
			for _, idx := range indices {
				if idx < 0 || int(idx) >= rows {
					panic(fmt.Sprintf("embedding: SLS index %d out of range [0,%d)", idx, rows))
				}
			}
			switch {
			case queued:
				job.indices, job.dst = indices, dst
				q.push(&job)
			case tiered != nil:
				clear(dst)
				tiered.AccumulateBag(dst, indices)
			default:
				clear(dst)
				for _, idx := range indices {
					e.Table.AccumulateRow(dst, int(idx))
				}
			}
		}
		if pos != len(e.Indices) {
			panic(fmt.Sprintf("embedding: bags hold %d indices of %d", pos, len(e.Indices)))
		}
		if e.Stride == 0 && off != len(e.Out) {
			panic(fmt.Sprintf("embedding: packed out length %d != %d non-empty bags × dim %d", len(e.Out), off/dim, dim))
		}
	}
	q.turn()
	q.turn()
}

// prefetchDistance is the lookups a chunk holds, and so how far ahead of
// the adds the prefetches run: between one and two chunks. A constant —
// the pooled rate is flat from 16 to 128 on the reference host.
const prefetchDistance = 64

// sumJob is one Dense or quantized bag with validated indices, waiting to
// be summed. The assembly kernels read its fields (go_asm.h).
type sumJob struct {
	indices []int32
	dst     []float32 // len(dst) is the table's Dim
	// The storage the prefetch reads: row r's fp32 values, or its codes,
	// start stride bytes apart from rows, and a quantized row's fp16 scale
	// and bias are scales[r] and biases[r] (nil for an fp32 table).
	rows           unsafe.Pointer
	stride         int
	scales, biases *uint16
	// What sums the bag: the fp32 table — by the assembly row-sum when avx
	// — or the quantized one.
	dense *Dense
	quant *quant.RowQuantized
	avx   bool
}

// jobFor returns the job every bag of a Dense or quantized table queues
// as, its indices and dst unset, once the table's storage is checked to
// hold every row of its shape. queued is false for any other backend.
func jobFor(t Table, rows, dim, lanes int) (j sumJob, queued bool) {
	switch t := t.(type) {
	case *Dense:
		if len(t.Data) < rows*dim {
			panic(fmt.Sprintf("embedding: dense table holds %d values for %dx%d", len(t.Data), rows, dim))
		}
		return sumJob{
			rows: unsafe.Pointer(unsafe.SliceData(t.Data)), stride: 4 * dim,
			dense: t, avx: havePoolAsm && lanes >= 8 && dim%8 == 0,
		}, true
	case *Quantized:
		enc := t.enc
		stride := enc.CodeStride()
		if len(enc.Scales) < rows || len(enc.Biases) < rows || len(enc.Packed) < rows*stride {
			panic(fmt.Sprintf("embedding: quantized table holds %d scales, %d biases and %d code bytes for %d rows of %d",
				len(enc.Scales), len(enc.Biases), len(enc.Packed), rows, stride))
		}
		return sumJob{
			rows: unsafe.Pointer(unsafe.SliceData(enc.Packed)), stride: stride,
			scales: unsafe.SliceData(enc.Scales), biases: unsafe.SliceData(enc.Biases),
			quant: enc,
		}, true
	}
	return sumJob{}, false
}

// sum pools the job's bag by Go code: the generic row-sum for an fp32
// bag, the quantized decode from +0 for a quantized one.
func (j *sumJob) sum() {
	if j.quant != nil {
		clear(j.dst)
		j.quant.AccumulateBag(j.dst, j.indices)
		return
	}
	j.dense.sumRows(j.dst, j.indices)
}

// sumQueue is Pool's look-ahead: the chunk being filled and the one
// filled before it, whose rows have been prefetched and not yet summed.
type sumQueue struct {
	prefetch bool
	chunk    [2][32]sumJob
	n        [2]int
	cur      int // the chunk being filled
	lookups  int // in it
}

// push sums j at once when there is nothing to prefetch with; otherwise
// it adds a copy of j to the current chunk and turns the chunks over when
// that one is full.
func (q *sumQueue) push(j *sumJob) {
	if !q.prefetch {
		j.sum()
		return
	}
	c := q.cur
	q.chunk[c][q.n[c]] = *j
	q.n[c]++
	q.lookups += len(j.indices)
	if q.n[c] == len(q.chunk[c]) || q.lookups >= prefetchDistance {
		q.turn()
	}
}

// turn prefetches the current chunk's rows, sums the previous chunk —
// each run of jobs the assembly row-sum takes in one call, every other
// job by its Go loop — and makes that one, now empty, current.
func (q *sumQueue) turn() {
	c, p := q.cur, 1-q.cur
	if q.n[c] > 0 {
		prefetchJobs(&q.chunk[c][0], q.n[c])
	}
	for jobs := q.chunk[p][:q.n[p]]; len(jobs) > 0; {
		n := 0
		for n < len(jobs) && jobs[n].avx {
			n++
		}
		if n > 0 {
			sumJobsAVX(&jobs[0], n)
		} else {
			jobs[0].sum()
			n = 1
		}
		jobs = jobs[n:]
	}
	q.n[p] = 0
	q.cur, q.lookups = p, 0
}

// sumRows is the generic row-sum: dst = ((+0 + row[indices[0]]) + …), in
// index order. The caller has validated indices.
//
// When an add meets two NaNs the accumulator's survives — what the
// hardware does for the assembly kernel, whose accumulator is the add's
// first source. Go source cannot pin that operand order (the race build
// compiles `dst[i] += v` with the operands swapped), so a column whose
// sum came out NaN, the only case where it can matter, is redone with the
// rule spelled out.
func (t *Dense) sumRows(dst []float32, indices []int32) {
	dim := len(dst)
	clear(dst)
	for _, idx := range indices {
		row := t.Data[int(idx)*dim:][:dim]
		for i, v := range row {
			dst[i] += v
		}
	}
	for c, sum := range dst {
		if sum != sum {
			var a float32
			for _, idx := range indices {
				if v := t.Data[int(idx)*dim+c]; a == a || v == v {
					a += v
				}
			}
			dst[c] = a
		}
	}
}
