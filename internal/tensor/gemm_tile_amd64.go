//go:build amd64

package tensor

// The register-tiled GEMM micro-kernels of the vector family.
//
// One assembly call owns sixteen vector accumulators (eight at 8 lanes)
// for the whole ascending k loop: they are zeroed in registers, every k
// step adds into them, and dst is written exactly once at the end with
// bias and ReLU applied on the way out. There are two arrangements of
// those accumulators, one kernel each:
//
//   - the tile (gemmTile16 / gemmTile8): four dst rows × four vectors
//     (4 × 64 floats at 16 lanes; 4 × 16 at 8). Each b vector is loaded
//     once per k step and feeds four rows. Column tails are lane masks,
//     row tails are tiles of 1–3 rows, and an output at most one vector
//     wide (the n = 1 scoring layers) runs a one-accumulator-per-row loop.
//   - the row kernel (gemmRow16 / gemmRow8): one dst row × up to four
//     full strips (1 × 256 at 16 lanes), the whole output row in
//     registers, an a value of ±0 skipped by a branch. It re-reads b once
//     per row, so it pays only where most of a tile's work would be
//     masked off: a short row group, or four rows of pooled embeddings
//     whose present blocks are mostly alone in their slots (sparseGroup).
//
// Both read a through a block table (Blocks): they walk the slots in
// ascending column order and run their k loop over each block that is
// there — b's rows Col … Col+Width−1 against the block's values. The row
// kernel passes over a slot whose handle is 0; the tile passes over a
// slot absent in all four rows by one test, and where only some are
// absent points those rows at a block of zeros, which its "a is not ±0"
// mask then skips step by step. A dense a is the table with one slot and
// every handle set, so there is one loop, not a dense one and a blocked
// one.
//
// Bitwise contract. Per dst element both kernels perform the generic
// kernel's operations in the generic kernel's order: one accumulator
// starting at +0, k ascending, t = a·b then acc = acc + t, and nothing
// at all for an a value of ±0 — an absent block being Width such values
// in a row, passed over together. The tile cannot branch per row, so its
// skipped step is a masked add instead (a k step whose four a values are
// all ±0 is skipped whole, by one integer test):
//
//   - at 16 lanes the add is write-masked by "a != 0", so a masked-off
//     accumulator is not written;
//   - at 8 lanes (AVX has no write masks) the product is ANDed with the
//     same all-ones/all-zeros mask, so a skipped step adds +0. That is
//     the identity because an accumulator is never −0: under
//     round-to-nearest x + y is −0 only when both x and y are −0, the
//     accumulator starts at +0, and so by induction over k steps no sum
//     can be −0. For every other value — finite, ±Inf, and quiet NaN,
//     whose payload an add with a non-NaN operand returns unchanged —
//     v + (+0) has the bits of v. TestAccumulatorNeverNegativeZero pins
//     the lemma and the differential harness pins the identity.
//
// Lane width is a property of the host, probed once (hostLanes): 16 with
// AVX-512F and OS-saved opmask/ZMM state, 8 with AVX, otherwise 0 — no
// assembly tile; the vector family's GEMM is then the generic Go kernel.

// cpuid executes CPUID for the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

// hostLanes probes the widest tile the CPU implements and the OS saves
// state for. AVX needs CPUID.1:ECX OSXSAVE+AVX and XCR0 bits 1–2
// (SSE, YMM); the 16-lane tile additionally needs CPUID.7.0:EBX[16]
// (AVX512F) and XCR0 bits 5–7 (opmask, ZMM_Hi256, Hi16_ZMM).
func hostLanes() int {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return 0
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return 0
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 {
		return 0
	}
	if maxLeaf >= 7 {
		const avx512f = 1 << 16
		if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f != 0 && xcr0&0xe6 == 0xe6 {
			return 16
		}
	}
	return 8
}

// gemmTile16 and gemmTile8 compute a tile of `rows` (1–4) dst rows by up
// to 64 (16 at 8 lanes) columns. The a rows are read through nslots block
// slots and their handles: h points at the first row's handle for the
// first slot, the next row's is one uint32 on and the next slot's hstride
// uint32s on (a short tile reads no handle past its last row). b, d and
// bias point at the first b column, the first dst element and the first
// bias element (bias may be nil); ldb and dstride are the byte strides of
// b and dst rows. Bit i of cmask is set when column i is live: dead lanes
// are never loaded or stored. relu is 0 or 1.
//
//go:noescape
func gemmTile16(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, dstride, rows int, cmask uint64, relu int)

//go:noescape
func gemmTile8(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, dstride, rows int, cmask uint64, relu int)

// gemmRow16 and gemmRow8 compute one dst row by `strips` (1–4) full
// 64-column (16 at 8 lanes) strips; the other arguments are as above.
//
//go:noescape
func gemmRow16(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, strips, relu int)

//go:noescape
func gemmRow8(slots *BlockSlot, nslots int, h *uint32, hstride int, b, d, bias *float32, ldb, strips, relu int)

// gemmRowsTile computes dst = relu?(a×b + bias) with the register tile
// at the given lane width. The caller has checked shapes and that k and
// n are nonzero.
func gemmRowsTile(dst *Matrix, a *Blocks, b *Matrix, lanes int, bias []float32, relu bool) {
	m, n := dst.Rows, b.Cols
	strip := 64 // columns per tile
	if lanes == 8 {
		strip = 16
	}
	// The kernels are called by name, not through a func value: a call the
	// compiler can see through keeps a — and a dense caller's one slot and
	// handles — on the stack.
	tile := func(h *uint32, b, d, bias *float32, rows int, cmask uint64, relu int) {
		if lanes == 8 {
			gemmTile8(&a.Slots[0], len(a.Slots), h, a.Stride, b, d, bias, 4*n, 4*n, rows, cmask, relu)
		} else {
			gemmTile16(&a.Slots[0], len(a.Slots), h, a.Stride, b, d, bias, 4*n, 4*n, rows, cmask, relu)
		}
	}
	row := func(h *uint32, b, d, bias *float32, strips, relu int) {
		if lanes == 8 {
			gemmRow8(&a.Slots[0], len(a.Slots), h, a.Stride, b, d, bias, 4*n, strips, relu)
		} else {
			gemmRow16(&a.Slots[0], len(a.Slots), h, a.Stride, b, d, bias, 4*n, strips, relu)
		}
	}
	r := 0
	if relu {
		r = 1
	}
	biasAt := func(j int) *float32 {
		if bias == nil {
			return nil
		}
		return &bias[j]
	}
	// Rows are taken in chunks of 64 groups of four so one word holds the
	// groups' shape choices. Within a chunk the tile loop runs column
	// strips outermost: a strip's b panel (k × 256 bytes) is then read
	// from memory once and re-read from cache by every other row group.
	for c0 := 0; c0 < m; c0 += 256 {
		c1 := min(m, c0+256)
		var rowBits uint64
		for g, i := 0, c0; i < c1; g, i = g+1, i+4 {
			rows := min(4, c1-i)
			// A short group has too few rows to share b with.
			if sparse := a.sparseGroup(i, rows); n < strip || (rows == 4 && !sparse) {
				continue
			}
			rowBits |= 1 << g
			for ri := i; ri < i+rows; ri++ {
				for j := 0; n-j >= strip; j += 4 * strip {
					row(&a.Handles[ri], &b.Data[j], &dst.Data[ri*n+j], biasAt(j), min(4, (n-j)/strip), r)
				}
			}
		}
		for j := 0; j < n; j += strip {
			cmask := uint64(1)<<min(strip, n-j) - 1
			for g, i := 0, c0; i < c1; g, i = g+1, i+4 {
				if n-j >= strip && rowBits>>g&1 != 0 {
					continue // the row kernel did this group's full strips
				}
				tile(&a.Handles[i], &b.Data[j], &dst.Data[i*n+j], biasAt(j), min(4, c1-i), cmask, r)
			}
		}
	}
}

// sparseGroup chooses the kernel for a group of four rows of a, [i,
// i+rows) — true for the row kernel — by an exact count of their blocks
// (which also vets every handle the kernels will follow, a short group's
// too, whose answer is not used). The tile pays for all four rows
// in every slot where any of them has a block; the row kernel pays only
// for each row's own blocks, but re-reads b once per row and takes a
// data-dependent branch per k step. So the row kernel wins when a slot's
// blocks are mostly alone in it — long inputs made of per-item blocks of
// pooled embeddings, most of them empty — and loses on a dense a, the
// one-slot table that is live in every row. The break-even point is the
// one measured for the zero-skipping dense form this replaced: 1.5 blocks
// per live slot.
func (a *Blocks) sparseGroup(i, rows int) bool {
	present, live := a.presence(i, rows)
	return 2*present <= 3*live
}
