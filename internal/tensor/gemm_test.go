package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refMatMul is the original serial kernel, kept verbatim as the
// determinism oracle: per element it accumulates over k ascending with
// the same zero-skip, so every kernel family must match it bitwise.
func refMatMul(dst, a, b *Matrix) {
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
				drow[j] += av * brow[j]
			}
		}
	}
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0 // exercise the zero-skip on every path
		case 1:
			m.Data[i] = float32(rng.NormFloat64() * 1e-4)
		default:
			m.Data[i] = float32(rng.NormFloat64())
		}
	}
	return m
}

func bitsEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x, want %x (not bitwise identical)",
				name, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestMatMulBitwiseMatchesReference sweeps odd shapes, zero-row/col
// degenerate cases, and exact register-tile boundary sizes, checking
// MatMul against the reference kernel bitwise under every kernel family
// and lane width.
func TestMatMulBitwiseMatchesReference(t *testing.T) {
	defer SetKernel(KernelAuto)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},       // odd everything
		{17, 31, 13},    // odd, spans unroll tail
		{0, 8, 8},       // zero rows
		{8, 0, 8},       // zero inner dim: dst must zero
		{8, 8, 0},       // zero cols
		{16, 64, 64},    // whole 4-row groups, whole column strips
		{17, 64, 64},    // row groups + a 1-row tail
		{64, 512, 512},  // whole strips, several row-kernel spans wide
		{64, 515, 517},  // just past those boundaries
		{129, 97, 33},   // row tail and masked column tail together
		{256, 512, 256}, // exactly one 256-row chunk of the tile loop
	}
	defer func(w int) { gemmLanes = w }(gemmLanes)
	ds := dispatches(t)
	rng := rand.New(rand.NewSource(42))
	for _, s := range shapes {
		a := randMatrix(rng, s.m, s.k)
		b := randMatrix(rng, s.k, s.n)
		want := New(s.m, s.n)
		refMatMul(want, a, b)
		for _, d := range ds {
			SetKernel(d.kern)
			gemmLanes = d.lanes
			got := New(s.m, s.n)
			// Dirty dst: the kernel must fully overwrite, not accumulate.
			for i := range got.Data {
				got.Data[i] = float32(math.NaN())
			}
			MatMul(got, a, b)
			bitsEqual(t, fmt.Sprintf("%dx%dx%d %+v", s.m, s.k, s.n, d), got, want)
		}
	}
}

// TestMatMulEpilogueFusionIdentity checks that fusing bias+ReLU into the
// GEMM is bitwise identical to running them as separate passes, for
// every epilogue combination, under both kernel families at every lane
// width — and that a dirty dst is fully overwritten (each row stored
// exactly once, none accumulated into).
func TestMatMulEpilogueFusionIdentity(t *testing.T) {
	defer SetKernel(KernelAuto)
	rng := rand.New(rand.NewSource(99))
	a := randMatrix(rng, 67, 33)
	b := randMatrix(rng, 33, 29)
	bias := make([]float32, 29)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64())
	}
	defer func(w int) { gemmLanes = w }(gemmLanes)
	ds := dispatches(t)
	for _, tc := range []struct {
		bias []float32
		relu bool
	}{{nil, false}, {nil, true}, {bias, false}, {bias, true}} {
		want := New(67, 29)
		refMatMul(want, a, b)
		if tc.bias != nil {
			AddBiasRows(want, tc.bias)
		}
		if tc.relu {
			ReLU(want)
		}
		for _, d := range ds {
			SetKernel(d.kern)
			gemmLanes = d.lanes
			got := New(67, 29)
			for i := range got.Data {
				got.Data[i] = float32(math.NaN())
			}
			MatMulEpilogue(got, a, b, tc.bias, tc.relu)
			bitsEqual(t, fmt.Sprintf("bias=%v relu=%v %+v", tc.bias != nil, tc.relu, d), got, want)
		}
	}
}

// TestMatMulEpilogueBiasLength pins the bias-length panic.
func TestMatMulEpilogueBiasLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short bias did not panic")
		}
	}()
	MatMulEpilogue(New(2, 3), New(2, 4), New(4, 3), make([]float32, 2), false)
}

// dispatch is one kernel selection the identity tests run under: a
// kernel family and, for the vector family, the register-tile width.
type dispatch struct {
	kern  Kernel
	lanes int
}

// dispatches returns the generic family plus the vector family at each
// tile width this host supports — 16, 8, and 0, the Go fallback used
// where there is no assembly tile — logging any width the host lacks.
// Callers restore gemmLanes (and the kernel) themselves.
func dispatches(t *testing.T) []dispatch {
	t.Helper()
	ds := []dispatch{{KernelGeneric, gemmLanes}}
	for _, w := range []int{16, 8, 0} {
		if w > gemmLanes {
			t.Logf("lanes=%d skipped: host register tile is %d lanes wide", w, gemmLanes)
			continue
		}
		ds = append(ds, dispatch{KernelVector, w})
	}
	return ds
}

// TestAccumulatorNeverNegativeZero pins the lemma the 8-lane tile's
// masked add rests on (gemm_tile_amd64.go): under round-to-nearest a sum
// is −0 only when both addends are −0, so an accumulator that starts at
// +0 never becomes −0 and adding +0 to it changes no bits — for finite
// values, ±Inf and quiet NaNs alike.
func TestAccumulatorNeverNegativeZero(t *testing.T) {
	negZero := math.Float32frombits(0x80000000)
	vals := []float32{0, negZero, 1, -1, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc12345)}
	for _, x := range vals {
		for _, y := range vals {
			sum := x + y
			if math.Float32bits(sum) == 0x80000000 && !(math.Float32bits(x) == 0x80000000 && math.Float32bits(y) == 0x80000000) {
				t.Errorf("%v + %v = -0", x, y)
			}
		}
		if math.Float32bits(x) == 0x80000000 {
			continue // the one value an accumulator never holds
		}
		var zero float32
		if got := x + zero; math.Float32bits(got) != math.Float32bits(x) {
			t.Errorf("%08x + 0 = %08x", math.Float32bits(x), math.Float32bits(got))
		}
	}
}

// TestMatMulStartsNoGoroutines pins that a MatMul runs wholly on its
// caller: a coalesced-batch-sized multiply under each kernel family
// adds nothing to the goroutine count (the test binary's own goroutines
// may exit meanwhile, so only a rise fails). Dense parallelism is per
// batch, in core.Engine; nothing in this package starts a goroutine.
func TestMatMulStartsNoGoroutines(t *testing.T) {
	defer SetKernel(KernelAuto)
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 256, 418)
	b := randMatrix(rng, 418, 256)
	dst := New(256, 256)
	before := runtime.NumGoroutine()
	for _, k := range []Kernel{KernelGeneric, KernelVector} {
		SetKernel(k)
		MatMul(dst, a, b)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%v: %d goroutines before MatMul, %d after", k, before, after)
		}
	}
}

// TestConcatIntoAndPairwiseDotInto checks the in-place variants against
// their allocating forms.
func TestConcatIntoAndPairwiseDotInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 4, 3)
	b := randMatrix(rng, 4, 5)
	want := Concat(a, b)
	got := New(4, 8)
	ConcatInto(got, a, b)
	bitsEqual(t, "concat", got, want)

	feats := []*Matrix{randMatrix(rng, 6, 4), randMatrix(rng, 6, 4), randMatrix(rng, 6, 4)}
	wantDots := PairwiseDot(feats)
	gotDots := New(6, 3)
	PairwiseDotInto(gotDots, feats)
	bitsEqual(t, "pairwise", gotDots, wantDots)
}

// BenchmarkPairwiseDotVecs is one item's feature interaction at the
// models' shape — 12 features, 66 dots — at both embedding widths. It
// must not allocate (cmd/benchcheck gates allocs/op); BENCH_baseline.json
// holds the parent's single-accumulator loop over the same operands.
func BenchmarkPairwiseDotVecs(b *testing.B) {
	for _, tc := range []struct {
		name string
		dim  int
	}{{"dim8", 8}, {"dim16", 16}} {
		rng := rand.New(rand.NewSource(5))
		vecs := make([][]float32, 12)
		for i := range vecs {
			vecs[i] = make([]float32, tc.dim)
			for c := range vecs[i] {
				vecs[i][c] = rng.Float32()*2 - 1
			}
		}
		dst := make([]float32, 66)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PairwiseDotVecs(dst, vecs)
			}
		})
	}
}
