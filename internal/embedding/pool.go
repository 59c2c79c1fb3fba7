package embedding

import (
	"fmt"

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
// for bit (internal/kerneltest's TestSLSPackedDifferential). Other
// backends pool through AccumulateBag / AccumulateRow into a zeroed row,
// as they always have.
//
// Prefetch. A shard's call reads a few random rows from each of many
// tables — about three per table, every one a cache miss and most a TLB
// miss — so no per-table loop can look ahead. Under the vector family a
// Dense bag is therefore not summed when the walk reaches it: it joins a
// chunk of bags worth about prefetchDistance lookups, across table
// boundaries. When a chunk fills, all its rows are prefetched in one
// burst — back to back, so the misses and the page walks under them
// overlap — and the previous chunk, prefetched a chunk ago, is summed.
func Pool(entries []PoolEntry) {
	// Dispatch is resolved once per call, so a SetKernel racing it never
	// splits a call across families.
	lanes := tensor.VectorLanes()
	q := sumQueue{prefetch: havePoolAsm && tensor.ActiveKernel() == tensor.KernelVector}
	for i := range entries {
		e := &entries[i]
		rows, dim := e.Table.NumRows(), e.Table.Dim()
		dense, _ := e.Table.(*Dense)
		if dense != nil && len(dense.Data) < rows*dim {
			panic(fmt.Sprintf("embedding: dense table holds %d values for %dx%d", len(dense.Data), rows, dim))
		}
		if e.Stride != 0 && e.Stride < dim {
			panic(fmt.Sprintf("embedding: out stride %d < dim %d", e.Stride, dim))
		}
		bagAcc, _ := e.Table.(BagAccumulator)
		asm := havePoolAsm && lanes >= 8 && dim%8 == 0
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
			case dense != nil:
				q.push(sumJob{table: dense, indices: indices, dst: dst}, asm)
			case bagAcc != nil:
				clear(dst)
				bagAcc.AccumulateBag(dst, indices)
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

// sumJob is one Dense bag with validated indices, waiting to be summed.
// The assembly kernels read its fields (go_asm.h).
type sumJob struct {
	table   *Dense
	indices []int32
	dst     []float32 // len(dst) is the table's Dim
}

// sumQueue is Pool's look-ahead: the chunk being filled and the one
// filled before it, whose rows have been prefetched and not yet summed.
type sumQueue struct {
	prefetch bool
	chunk    [2][32]sumJob
	n        [2]int
	goSum    [2]bool // some job of the chunk cannot take the assembly row-sum
	cur      int     // the chunk being filled
	lookups  int     // in it
}

// push sums j at once when there is nothing to prefetch with; otherwise
// it adds j to the current chunk and turns the chunks over when that one
// is full.
func (q *sumQueue) push(j sumJob, asm bool) {
	if !q.prefetch {
		j.table.sumRows(j.dst, j.indices)
		return
	}
	c := q.cur
	q.chunk[c][q.n[c]] = j
	q.n[c]++
	q.goSum[c] = q.goSum[c] || !asm
	q.lookups += len(j.indices)
	if q.n[c] == len(q.chunk[c]) || q.lookups >= prefetchDistance {
		q.turn()
	}
}

// turn prefetches the current chunk's rows, sums the previous chunk, and
// makes that one, now empty, current.
func (q *sumQueue) turn() {
	c, p := q.cur, 1-q.cur
	if q.n[c] > 0 {
		prefetchJobs(&q.chunk[c][0], q.n[c])
	}
	switch {
	case q.n[p] == 0:
	case q.goSum[p]:
		for i := range q.chunk[p][:q.n[p]] {
			j := &q.chunk[p][i]
			j.table.sumRows(j.dst, j.indices)
		}
	default:
		sumJobsAVX(&q.chunk[p][0], q.n[p])
	}
	q.n[p], q.goSum[p] = 0, false
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
