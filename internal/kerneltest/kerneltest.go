// Package kerneltest is the differential kernel-test harness: the
// machinery that proves the hand-vectorized kernels behind
// tensor.SetKernel are safe to dispatch to. Every dispatched hot loop
// promises bitwise-identical results to its generic reference at every
// shape and payload; this package supplies the adversarial inputs that
// make violations visible — odd and prime dimensions, sub-block tails,
// zero-size operands, unaligned slice offsets, and NaN/Inf/denormal
// payloads whose propagation depends on exact instruction operand order
// — plus independent reference implementations to compare against. The
// tests in this package sweep every dispatch (kernel family × lane
// width); CI additionally re-runs the kernel-owning packages once per
// forced REPRO_KERNEL setting.
//
// The harness keeps its own GEMM oracle (RefMatMul) rather than
// importing one from internal/tensor, so a bug introduced into the
// tensor package's reference path cannot silently re-tune the
// expectation it is compared to.
package kerneltest

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Shape is one GEMM problem size: dst is M×N, a is M×K, b is K×N.
type Shape struct{ M, K, N int }

// GEMMShapes returns the adversarial shape sweep. Alongside ordinary
// sizes it covers every boundary class the engine has: zero dimensions
// (empty dst, and the k=0 case where dst must still be zeroed), single
// elements, primes with every tail length, row counts on and off the
// four-row tile grid — and everything the register tile branches
// on: row groups of 1–4 and 4+1, outputs narrower than one vector
// (n = 1, 15), one vector and one 64-column strip ± 1, whole numbers of
// strips (96 … 256, the row kernel's widths) and strips plus a masked
// tail (257, 513), at a short k, and the long EmbProj k on a handful.
func GEMMShapes() []Shape {
	shapes := []Shape{
		{0, 4, 4}, {4, 0, 4}, {4, 4, 0}, {0, 0, 0},
		{1, 1, 1}, {1, 2, 1}, {2, 1, 2},
		{3, 5, 7}, {5, 7, 3}, {7, 3, 5},
		{4, 4, 8}, {4, 4, 9}, {5, 4, 8}, // row groups ± 1
		{13, 17, 11}, {17, 31, 13}, // primes, all tails
		{16, 64, 64}, {17, 64, 65}, // whole row groups and strips, each + 1
		{8, 16, 512}, {8, 16, 513}, // eight strips, eight strips + 1
		{6, 512, 16}, {6, 515, 16}, // long k over a short row group
		{64, 96, 33},                         // many row groups, odd columns
		{5, 0, 65}, {4, 1, 256}, {17, 1, 17}, // k = 0 and 1 across strips
		{4, 2960, 256}, {5, 2960, 257}, {16, 2960, 256}, {17, 2960, 96}, {3, 2960, 64}, {2, 2960, 1},
	}
	for _, m := range []int{1, 2, 3, 4, 5, 16, 17} {
		for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 96, 192, 256, 257, 513} {
			shapes = append(shapes, Shape{m, 13, n})
		}
	}
	return shapes
}

// Payload names one float32 fill strategy for differential inputs.
// Fill fills the a operand (and anything else a test builds); FillB,
// when set, fills the b operand differently.
type Payload struct {
	Name  string
	Fill  func(rng *rand.Rand, dst []float32)
	FillB func(rng *rand.Rand, dst []float32)
}

// B returns the payload that fills a b operand.
func (p Payload) B() Payload {
	if p.FillB != nil {
		p.Fill = p.FillB
	}
	return p
}

// fillRareSpecials is the b side of the zero-skip payloads: mostly
// ordinary values with a NaN, ±Inf or subnormal every few entries, so
// some of them sit under a zero a value — where 0·b would be NaN rather
// than nothing, and a kernel that multiplies before it masks shows — and
// the rest reach the sums through a nonzero one.
func fillRareSpecials(rng *rand.Rand, dst []float32) {
	for i := range dst {
		switch rng.Intn(24) {
		case 0:
			dst[i] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<20)))
		case 1:
			dst[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case 2:
			dst[i] = math.Float32frombits(uint32(rng.Intn(1<<23-1) + 1))
		default:
			dst[i] = float32(rng.NormFloat64())
		}
	}
}

// Payloads returns the payload classes the differential tests sweep.
// The special-value class deliberately mixes distinct NaN payloads:
// x86 returns the first source operand when both inputs of a mul/add
// are NaN, so two kernels that disagree on operand order produce
// different bit patterns here and nowhere else.
func Payloads() []Payload {
	return []Payload{
		{"normal", func(rng *rand.Rand, dst []float32) {
			for i := range dst {
				dst[i] = float32(rng.NormFloat64())
			}
		}, nil},
		{"sparse", func(rng *rand.Rand, dst []float32) {
			for i := range dst {
				if rng.Intn(3) == 0 {
					dst[i] = 0
				} else {
					dst[i] = float32(rng.NormFloat64())
				}
			}
		}, nil},
		{"special", func(rng *rand.Rand, dst []float32) {
			for i := range dst {
				switch rng.Intn(8) {
				case 0:
					dst[i] = float32(math.NaN())
				case 1:
					// Distinct quiet-NaN payloads expose operand-order bugs.
					dst[i] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<20)))
				case 2:
					dst[i] = float32(math.Inf(1))
				case 3:
					dst[i] = float32(math.Inf(-1))
				case 4:
					// Subnormals: catches kernels that flush to zero.
					dst[i] = math.Float32frombits(uint32(rng.Intn(1<<23-1) + 1))
				case 5:
					dst[i] = math.Float32frombits(0x80000000) // -0
				case 6:
					dst[i] = 0
				default:
					dst[i] = float32(rng.NormFloat64())
				}
			}
		}, nil},
		// ReLU output: about half the values +0, a few −0 — the tile's
		// masked add, and the row kernel's mispredicted skips.
		{"relu-sparse", func(rng *rand.Rand, dst []float32) {
			for i := range dst {
				switch r := rng.Intn(16); {
				case r == 0:
					dst[i] = math.Float32frombits(0x80000000)
				case r < 8:
					dst[i] = 0
				default:
					dst[i] = float32(math.Abs(rng.NormFloat64()))
				}
			}
		}, fillRareSpecials},
		// Pooled embeddings of a few tables out of many: runs of 16 zero
		// columns, about 91% of them, so whole k steps are zero in every
		// row of a tile (the all-zero-step skip) and the row kernel is
		// chosen.
		{"block-sparse", func(rng *rand.Rand, dst []float32) {
			for i := 0; i < len(dst); i += 16 {
				live := rng.Intn(11) == 0
				for j := i; j < i+16 && j < len(dst); j++ {
					dst[j] = 0
					if live {
						dst[j] = float32(rng.NormFloat64())
					}
				}
			}
		}, fillRareSpecials},
	}
}

// RandMatrix builds an M×K matrix with the payload's fill.
func RandMatrix(rng *rand.Rand, rows, cols int, p Payload) *tensor.Matrix {
	m := tensor.New(rows, cols)
	p.Fill(rng, m.Data)
	return m
}

// UnalignedMatrix builds a matrix whose Data begins at a deliberately
// odd element offset inside a larger backing array, so its base pointer
// is 4-byte but not 16/32-byte aligned — the layout the vector kernels'
// unaligned loads must handle.
func UnalignedMatrix(rng *rand.Rand, rows, cols, offset int, p Payload) *tensor.Matrix {
	backing := make([]float32, offset+rows*cols)
	data := backing[offset : offset+rows*cols]
	p.Fill(rng, data)
	return tensor.FromSlice(rows, cols, data)
}

// refMul and refAcc make the oracle's both-NaN outcomes explicit. When
// exactly one operand of an x86 mul/add is NaN the result payload is
// that NaN regardless of operand order, but when BOTH are NaN the
// first-source operand wins — and which expression operand the Go
// compiler puts in the first-source slot is a per-site, per-build-mode
// accident (the -race build of this very file flipped a plain
// `d += av*bv` loop's choice). The production kernels' behavior is
// fixed — the multiply propagates bv, the accumulate propagates the
// product — so the oracle encodes those two rules as branches instead
// of trusting its own compilation.
func refMul(av, bv float32) float32 {
	if av != av && bv != bv {
		return bv
	}
	return av * bv
}

func refAcc(d, t float32) float32 {
	if d != d && t != t {
		return t
	}
	return d + t
}

// RefMatMul is the harness's independent GEMM oracle: per dst element
// one accumulator summed over k strictly ascending, skipping a-values
// that are zero (which preserves NaN/Inf columns exactly as the engine
// contract specifies: a zero a-element contributes nothing, not 0*b).
func RefMatMul(dst, a, b *tensor.Matrix) {
	n := b.Cols
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b.Data[p*n : (p+1)*n]
			for j := range brow {
				drow[j] = refAcc(drow[j], refMul(av, brow[j]))
			}
		}
	}
}

// RefEpilogue is the oracle for the fused epilogue, applied to a finished
// RefMatMul result: bias added to every row (nil for none) and then, when
// relu is set, v < 0 → +0 — which leaves NaN and −0 as they are. As with
// refAcc, the both-NaN sum is spelled out: the kernels add bias to the
// accumulator, so the accumulator's payload wins.
func RefEpilogue(dst *tensor.Matrix, bias []float32, relu bool) {
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		for c, v := range row {
			if bias != nil && !(v != v && bias[c] != bias[c]) {
				v += bias[c]
			}
			if relu && v < 0 {
				v = 0
			}
			row[c] = v
		}
	}
}

// DiffFloat32 returns the index of the first bitwise difference between
// got and want, or -1 if they are identical. Lengths must match; a
// length mismatch reports index len(want).
func DiffFloat32(got, want []float32) int {
	if len(got) != len(want) {
		return len(want)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// Kernels returns both forced dispatch settings, the axis every
// differential test sweeps.
func Kernels() []tensor.Kernel {
	return []tensor.Kernel{tensor.KernelGeneric, tensor.KernelVector}
}
