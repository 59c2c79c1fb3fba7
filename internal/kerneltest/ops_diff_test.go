package kerneltest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestSLSCrossKernelIdentity runs the full SLS operator (whole-bag
// fast path for quantized tables, per-row path for dense) under both
// dispatch settings and demands bitwise-identical pooled outputs — the
// operator-level closure of the per-row decode property.
func TestSLSCrossKernelIdentity(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(21))
	const rows, dim = 500, 19
	dense := embedding.NewDenseRandom(rng, rows, dim, 1)
	tables := map[string]embedding.Table{
		"dense": dense,
		"int8":  dense.Quantize(quant.Bits8),
		"int4":  dense.Quantize(quant.Bits4),
		"fp16":  dense.ToFP16(),
	}
	bags := make([]embedding.Bag, 12)
	for b := range bags {
		idx := make([]int32, rng.Intn(40))
		for i := range idx {
			idx[i] = int32(rng.Intn(rows))
		}
		bags[b] = embedding.Bag{Indices: idx}
	}
	for name, table := range tables {
		tensor.SetKernel(tensor.KernelGeneric)
		want := make([]float32, len(bags)*dim)
		embedding.SLS(want, table, bags)
		tensor.SetKernel(tensor.KernelVector)
		got := make([]float32, len(bags)*dim)
		embedding.SLS(got, table, bags)
		if i := DiffFloat32(got, want); i >= 0 {
			t.Fatalf("%s: element %d = %08x, want %08x",
				name, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestFusedFCCrossKernelIdentity runs the fused FC+activation op (the
// dense-stack building block, which rides the GEMM epilogue) under both
// dispatch settings, checking layer outputs bitwise.
func TestFusedFCCrossKernelIdentity(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(8))
	p := Payloads()[1]
	w := RandMatrix(rng, 37, 23, p)
	bias := make([]float32, 23)
	p.Fill(rng, bias)
	in := RandMatrix(rng, 41, 37, p)

	run := func(k tensor.Kernel) *tensor.Matrix {
		tensor.SetKernel(k)
		ws := nn.NewWorkspace()
		ws.SetBlob("in", in.Clone())
		op := &nn.FusedFC{OpName: "ffc", W: w, B: bias, Act: nn.ActReLU, Input: "in", Output: "out"}
		if err := op.Run(ws); err != nil {
			t.Fatal(err)
		}
		out, _ := ws.Blob("out")
		return out
	}
	want := run(tensor.KernelGeneric)
	got := run(tensor.KernelVector)
	if i := DiffFloat32(got.Data, want.Data); i >= 0 {
		t.Fatalf("element %d = %08x, want %08x",
			i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
	}
}

// TestPairwiseDotVecsDifferential holds tensor.PairwiseDotVecs — which
// runs four dots of a feature at a time, each in its own accumulator — to
// the single-accumulator loop it replaced, bit for bit: every feature
// count that leaves a different last group (0, 1, 2, 5, 6 and the models'
// 12), both embedding widths and two odd ones, and every payload class,
// so sums that pass through ±0, subnormals, ±Inf and NaN must come out
// the same. One thing is not pinned because the compiled Go loop never
// fixed it: when two NaNs meet in one multiply or add, which payload
// survives is the register allocator's choice at that site (it differs
// between this loop's plain and -race builds), so a dot in which that
// happened must be a NaN and no more.
func TestPairwiseDotVecsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	isNaN := func(v float32) bool { return v != v }
	for _, p := range Payloads() {
		for _, f := range []int{0, 1, 2, 5, 6, 12} {
			for _, dim := range []int{1, 7, 8, 16} {
				vecs := make([][]float32, f)
				for i := range vecs {
					vecs[i] = make([]float32, dim)
					p.Fill(rng, vecs[i])
				}
				var want []float32
				var twoNaNs []bool
				for i, vi := range vecs {
					for _, vj := range vecs[i+1:] {
						var acc float32
						met := false
						for c := range vi {
							prod := vi[c] * vj[c]
							met = met || (isNaN(vi[c]) && isNaN(vj[c])) || (isNaN(acc) && isNaN(prod))
							acc += prod
						}
						want, twoNaNs = append(want, acc), append(twoNaNs, met)
					}
				}
				got := make([]float32, f*(f-1)/2)
				tensor.PairwiseDotVecs(got, vecs)
				for i := range want {
					if twoNaNs[i] && isNaN(got[i]) {
						continue
					}
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("payload=%s f=%d dim=%d: dot %d = %08x, want %08x",
							p.Name, f, dim, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}
