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
//     registers, an a value of ±0 skipped by a branch (and a run of them
//     by one vector compare). It re-reads b once per row, so it pays only
//     where most of a tile's work would be masked off; rowShape decides
//     from the a rows themselves.
//
// Bitwise contract. Per dst element both kernels perform the generic
// kernel's operations in the generic kernel's order: one accumulator
// starting at +0, k ascending, t = a·b then acc = acc + t, and nothing
// at all for an a value of ±0. The tile cannot branch per row, so its
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

import "math"

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
// to 64 (16 at 8 lanes) columns over k steps. a, b, d and bias point at
// the first a row, the first b column, the first dst element and the
// first bias element (bias may be nil); astride, ldb and dstride are the
// byte strides of a, b and dst rows. Bit i of cmask is set when column i
// is live: dead lanes are never loaded or stored. relu is 0 or 1.
//
//go:noescape
func gemmTile16(a, b, d, bias *float32, k, astride, ldb, dstride, rows int, cmask uint64, relu int)

//go:noescape
func gemmTile8(a, b, d, bias *float32, k, astride, ldb, dstride, rows int, cmask uint64, relu int)

// gemmRow16 and gemmRow8 compute one dst row by `strips` (1–4) full
// 64-column (16 at 8 lanes) strips; the other arguments are as above.
//
//go:noescape
func gemmRow16(a, b, d, bias *float32, k, ldb, strips, relu int)

//go:noescape
func gemmRow8(a, b, d, bias *float32, k, ldb, strips, relu int)

// gemmRowsTile computes dst = relu?(a×b + bias) with the register tile
// at the given lane width. The caller has checked shapes and that k and
// n are nonzero.
func gemmRowsTile(dst, a, b *Matrix, lanes int, bias []float32, relu bool) {
	m, k, n := dst.Rows, a.Cols, b.Cols
	tile, row, strip := gemmTile16, gemmRow16, 64 // strip: columns per tile
	if lanes == 8 {
		tile, row, strip = gemmTile8, gemmRow8, 16
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
		for g, i := 0, c0; i < c1 && n >= strip; g, i = g+1, i+4 {
			rows := min(4, c1-i)
			// A short group has too few rows to share b with.
			if rows == 4 && !rowShape(a.Data[i*k:(i+4)*k], k) {
				continue
			}
			rowBits |= 1 << g
			for ri := i; ri < i+rows; ri++ {
				for j := 0; n-j >= strip; j += 4 * strip {
					row(&a.Data[ri*k], &b.Data[j], &dst.Data[ri*n+j], biasAt(j), k, 4*n, min(4, (n-j)/strip), r)
				}
			}
		}
		for j := 0; j < n; j += strip {
			cmask := uint64(1)<<min(strip, n-j) - 1
			for g, i := 0, c0; i < c1; g, i = g+1, i+4 {
				if n-j >= strip && rowBits>>g&1 != 0 {
					continue // the row kernel did this group's full strips
				}
				tile(&a.Data[i*k], &b.Data[j], &dst.Data[i*n+j], biasAt(j), k, 4*k, 4*n, 4*n, min(4, c1-i), cmask, r)
			}
		}
	}
}

// rowShape chooses the kernel for a group of four a rows (4·k values)
// from what their values say about the work. The tile pays for all four
// rows on every k step at which any of them is nonzero; the row kernel
// pays only for each row's own nonzero values, but re-reads b once per
// row and takes a data-dependent branch per k step. So the row kernel
// wins when a step's nonzero values are mostly alone in it — long inputs
// made of per-item blocks of pooled embeddings, most of them empty — and
// loses on dense or randomly ReLU-sparse rows.
func rowShape(rows []float32, k int) bool {
	// Counting is branch-free: on ReLU outputs a test per value would
	// mispredict half the time and cost more than the loads.
	nz := func(v float32) uint32 {
		x := math.Float32bits(v) << 1 // drop the sign: ±0 → 0
		return (x | -x) >> 31
	}
	r0, r1, r2, r3 := rows[:k], rows[k:2*k], rows[2*k:3*k], rows[3*k:4*k]
	// live counts sampled k steps with a nonzero value in any row, sum the
	// nonzero values themselves. Up to 32 evenly spaced steps are enough:
	// a wrong call near the break-even point costs little, and either
	// kernel computes the same bits.
	var live, sum uint32
	for p, step := 0, max(1, k/32); p < k; p += step {
		c := nz(r0[p]) + nz(r1[p]) + nz(r2[p]) + nz(r3[p])
		sum += c
		live += (c + 3) >> 2
	}
	// The tile does 4·live row steps of work where the row kernel does
	// sum, but a row step costs the row kernel more — about 1.4× when its
	// skips come in predictable runs, nearly 2× when they are random (b
	// re-read per row, mispredicted branches) — so random half-zero ReLU
	// outputs (sum ≈ 2.1·live) stay with the tile and mostly-empty blocks
	// (sum ≈ 1.2·live at 91 %) go to the row kernel.
	return 2*sum <= 3*live
}
