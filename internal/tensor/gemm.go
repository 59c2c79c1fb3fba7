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
	if bias != nil && len(bias) != dst.Cols {
		panic(fmt.Sprintf("tensor: bias length %d != cols %d", len(bias), dst.Cols))
	}
	// Resolve kernel dispatch once per MatMul so one call runs one kernel
	// even if SetKernel races it.
	gemmRows(dst, a, b, VectorLanes(), bias, relu)
}

// gemmRows computes dst = relu?(a×b + bias) with the kernel selected at
// matmul entry: the register tile at the given lane width
// (gemm_tile_amd64.go), which fuses the epilogue into its store, or —
// lanes 0 — the generic streaming kernel below followed by the same
// epilogue as a pass over the finished rows. Per element the
// accumulation runs over k strictly ascending with the same zero-skip
// on every path — the bitwise-determinism contract — so the kernels are
// interchangeable bit for bit. (The j traversal order is free: each
// output element is a single independent accumulator.)
func gemmRows(dst, a, b *Matrix, lanes int, bias []float32, relu bool) {
	if lanes > 0 && a.Cols > 0 && b.Cols > 0 {
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
func gemmRowsGeneric(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	for i := 0; i < dst.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}
