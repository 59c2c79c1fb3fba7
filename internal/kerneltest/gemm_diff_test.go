package kerneltest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// resetDispatch restores every tensor knob the sweeps touch.
func resetDispatch() {
	gemmLanes = hostLanes
	tensor.SetKernel(tensor.KernelAuto)
}

// TestGEMMDifferential is the core differential property: for every
// adversarial shape × payload class, MatMul under every kernel, at
// every lane width the host has, is bitwise identical to the harness
// oracle. The special payload class carries distinct-payload NaNs,
// ±Inf, subnormals, and -0, so an asm kernel whose multiply or add
// operand order differs from the generic kernel's fails here; the
// relu-sparse and block-sparse classes put NaN, ±Inf and subnormal b
// entries under zero a values, so a kernel that multiplies where the
// generic kernel skips fails here.
func TestGEMMDifferential(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(1234))
	for _, p := range Payloads() {
		for _, s := range GEMMShapes() {
			a := RandMatrix(rng, s.M, s.K, p)
			b := RandMatrix(rng, s.K, s.N, p.B())
			want := tensor.New(s.M, s.N)
			RefMatMul(want, a, b)
			for _, d := range ds {
				d.set()
				got := tensor.New(s.M, s.N)
				for i := range got.Data {
					got.Data[i] = float32(math.NaN()) // dirty dst
				}
				tensor.MatMul(got, a, b)
				if i := DiffFloat32(got.Data, want.Data); i >= 0 {
					t.Fatalf("payload=%s shape=%dx%dx%d %v: element %d = %08x, want %08x",
						p.Name, s.M, s.K, s.N, d, i,
						math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}

// TestGEMMDifferentialUnaligned re-runs the differential on operands
// whose backing slices start at odd element offsets, so the vector
// kernels see base pointers with every 4-byte-aligned misalignment
// class relative to the 32/64-byte vector widths — through a masked
// column tail (21 columns) and through full strips plus a tail (5×81).
func TestGEMMDifferentialUnaligned(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(77))
	p := Payloads()[2] // special values
	for _, off := range []int{1, 2, 3, 5, 7} {
		for _, s := range []Shape{{9, 23, 21}, {5, 19, 81}} {
			a := UnalignedMatrix(rng, s.M, s.K, off, p)
			b := UnalignedMatrix(rng, s.K, s.N, off, p)
			want := tensor.New(s.M, s.N)
			RefMatMul(want, a, b)
			for _, d := range ds {
				d.set()
				got := UnalignedMatrix(rng, s.M, s.N, off, p) // dirty, unaligned dst
				tensor.MatMul(got, a, b)
				if i := DiffFloat32(got.Data, want.Data); i >= 0 {
					t.Fatalf("off=%d shape=%dx%dx%d %v: element %d = %08x, want %08x",
						off, s.M, s.K, s.N, d, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}

// epilogueShapes are the shapes the fused-epilogue differential runs:
// every store path of the register tile (narrow, masked tail, whole
// strips through the row kernel, strips plus tail) under short and full
// row groups, k = 0 (dst is the epilogue of zero), and one 64-row size.
var epilogueShapes = []Shape{
	{1, 7, 1}, {5, 0, 19}, {3, 9, 15}, {4, 13, 64}, {7, 13, 65},
	{2, 21, 256}, {17, 29, 96}, {16, 40, 257}, {33, 29, 27}, {64, 96, 130},
}

// TestGEMMEpilogueDifferential checks the fused bias + ReLU epilogue —
// bias nil and non-nil × ReLU off and on — against the oracle's separate
// passes, for every payload class (so sums that are NaN, ±Inf and
// subnormal meet biases that are too, and −Inf and NaN meet the ReLU),
// into a dirty, unaligned dst. It also pins the lemma the 8-lane masked
// add rests on at the harness level: no GEMM sum is ever −0.
func TestGEMMEpilogueDifferential(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(31))
	for _, p := range Payloads() {
		for _, s := range epilogueShapes {
			a := RandMatrix(rng, s.M, s.K, p)
			b := RandMatrix(rng, s.K, s.N, p.B())
			bias := make([]float32, s.N)
			p.B().Fill(rng, bias)
			sums := tensor.New(s.M, s.N)
			RefMatMul(sums, a, b)
			for i, v := range sums.Data {
				if math.Float32bits(v) == 0x80000000 {
					t.Fatalf("payload=%s shape=%dx%dx%d: sum %d is -0", p.Name, s.M, s.K, s.N, i)
				}
			}
			for _, relu := range []bool{false, true} {
				for _, bs := range [][]float32{nil, bias} {
					want := sums.Clone()
					RefEpilogue(want, bs, relu)
					for _, d := range ds {
						d.set()
						got := UnalignedMatrix(rng, s.M, s.N, 3, p) // dirty, unaligned dst
						tensor.MatMulEpilogue(got, a, b, bs, relu)
						if i := DiffFloat32(got.Data, want.Data); i >= 0 {
							t.Fatalf("payload=%s shape=%dx%dx%d bias=%v relu=%v %v: element %d = %08x, want %08x",
								p.Name, s.M, s.K, s.N, bs != nil, relu, d, i,
								math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestRefEpilogueMatchesTensorOps ties the oracle's epilogue to the
// unfused tensor passes it stands for, on values where no operand-order
// accident can separate them (at most one NaN per sum).
func TestRefEpilogueMatchesTensorOps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandMatrix(rng, 9, 37, Payloads()[2])
	bias := make([]float32, 37)
	Payloads()[0].Fill(rng, bias)
	want := m.Clone()
	tensor.AddBiasRows(want, bias)
	tensor.ReLUSlice(want.Data)
	RefEpilogue(m, bias, true)
	if i := DiffFloat32(m.Data, want.Data); i >= 0 {
		t.Fatalf("element %d = %08x, want %08x", i, math.Float32bits(m.Data[i]), math.Float32bits(want.Data[i]))
	}
}

// TestGEMMCrossKernelSweep pins generic-vs-vector identity (rather than
// oracle identity) over a dense sweep of small shapes, catching any
// tail-length regression in the micro-kernel dispatch seams.
func TestGEMMCrossKernelSweep(t *testing.T) {
	defer resetDispatch()
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(6))
	p := Payloads()[2]
	for m := 1; m <= 6; m++ {
		for k := 1; k <= 6; k++ {
			for n := 1; n <= 10; n++ {
				a := RandMatrix(rng, m, k, p)
				b := RandMatrix(rng, k, n, p)
				ds[0].set() // the generic family
				want := tensor.New(m, n)
				tensor.MatMul(want, a, b)
				for _, d := range ds[1:] {
					d.set()
					got := tensor.New(m, n)
					tensor.MatMul(got, a, b)
					if i := DiffFloat32(got.Data, want.Data); i >= 0 {
						t.Fatalf("%dx%dx%d %v: element %d = %08x, want %08x", m, k, n, d, i,
							math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
					}
				}
			}
		}
	}
}
