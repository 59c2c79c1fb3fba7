package tensor

import "fmt"

// gemmLanes is the register tile's lane width on this host: 16, 8, or
// 0 for no assembly tile. Probed once at init; only tests assign it
// afterwards, to run the narrower widths on a wide host.
var gemmLanes = hostLanes()

// VectorLanes resolves kernel dispatch for one operation: the float32
// lane count the vector family's assembly may use on this host (16 or
// 8), or 0 when the generic family is active or the host has no AVX.
func VectorLanes() int {
	if ActiveKernel() != KernelVector {
		return 0
	}
	return gemmLanes
}

// matmul computes dst = relu?(a×b + bias) on the caller's goroutine.
// bias may be nil. Dense parallelism is per batch, in core.Engine: a
// request is cut into batches of the model's DefaultBatch items (16 for
// DRM1 and DRM2, 24 for DRM3) that run concurrently, and a served MatMul
// is one batch tall.
func matmul(dst, a, b *Matrix, bias []float32, relu bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(shapeErr("MatMul", dst, a, b))
	}
	// A dense a is the one-slot block table; its handles fit the stack for
	// any batch the engine cuts, coalesced ones included.
	var one [1]BlockSlot
	var few [256]uint32
	handles := few[:]
	if a.Rows > len(few) {
		handles = make([]uint32, a.Rows)
	}
	blocks := denseBlocks(a, one[:], handles[:a.Rows])
	gemmRows(dst, &blocks, b, bias, relu)
}

// MatMulBlocks computes dst = relu?(a×b + bias) for a block table a
// (Rows × Cols) and b (Cols × n), bias nil for none: MatMulEpilogue over
// a.Dense(), bit for bit, without the matrix — an absent block is the k
// steps the dense kernels would have skipped one zero at a time. dst may
// not alias b or a's storage.
func MatMulBlocks(dst *Matrix, a *Blocks, b *Matrix, bias []float32, relu bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBlocks shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	a.check(b.Rows)
	gemmRows(dst, a, b, bias, relu)
}

// gemmRows computes dst = relu?(a×b + bias) with the kernel the dispatch
// table names, resolved once so one call runs one kernel even if
// SetKernel races it: the register tile at the host's lane width
// (gemm_tile_amd64.go), which fuses the epilogue into its store, or —
// lanes 0 — the generic streaming kernel below followed by the same
// epilogue as a pass over the finished rows. Per element the
// accumulation runs over k strictly ascending — a row's slots in
// ascending column order, a present block's values in order, nothing for
// an absent block — with the same zero-skip on every path: the
// bitwise-determinism contract, so the kernels are interchangeable bit
// for bit. (The j traversal order is free: each output element is a
// single independent accumulator.)
func gemmRows(dst *Matrix, a *Blocks, b *Matrix, bias []float32, relu bool) {
	if bias != nil && len(bias) != dst.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), dst.Cols))
	}
	if lanes := VectorLanes(); lanes > 0 && a.Cols > 0 && b.Cols > 0 {
		gemmRowsTile(dst, a, b, lanes, bias, relu)
		return
	}
	gemmRowsGeneric(dst, a, b)
	n := dst.Cols
	for i := 0; i < dst.Rows; i++ {
		row := dst.Data[i*n : (i+1)*n]
		if bias != nil {
			addBias(row, bias)
		}
		if relu {
			ReLUSlice(row)
		}
	}
}

// gemmRowsGeneric is the portable reference kernel: one output row at a
// time, whole rows of b streamed through the accumulator row, which
// lives in L1 at every layer width in the models (at most 256).
func gemmRowsGeneric(dst *Matrix, a *Blocks, b *Matrix) {
	n := b.Cols
	for i := 0; i < dst.Rows; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		for s := range a.Slots {
			h := a.Handles[s*a.Stride+i]
			if h == 0 {
				continue
			}
			slot := &a.Slots[s]
			p := int(slot.Col)
			for _, av := range slot.Data[h-1:][:slot.Width] {
				if av != 0 {
					brow := b.Data[p*n : (p+1)*n]
					for j, bv := range brow {
						drow[j] += av * bv
					}
				}
				p++
			}
		}
	}
}
