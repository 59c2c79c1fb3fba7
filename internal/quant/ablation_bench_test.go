package quant

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Ablation: lookup-path cost of quantization widths. Table III's finding
// that compression barely moves latency rests on the dequantize-fused
// pooling staying close to raw fp32 accumulation. The plain int8/int4
// arms force the generic (scalar) kernel — the committed pre-dispatch
// baseline — and the -vector arms force the word-wide decoders, so the
// benchcheck faster-than assertion can compare the two within one run.
func BenchmarkAccumulateRowByWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 65536, 16
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = rng.Float32()*2 - 1
	}
	idx := make([]int, 4096)
	for i := range idx {
		idx[i] = rng.Intn(rows)
	}

	b.Run("fp32", func(b *testing.B) {
		acc := make([]float32, cols)
		for i := 0; i < b.N; i++ {
			row := data[idx[i%len(idx)]*cols:]
			for c := 0; c < cols; c++ {
				acc[c] += row[c]
			}
		}
	})
	for _, tc := range []struct {
		name string
		kern tensor.Kernel
	}{
		{"int8", tensor.KernelGeneric},
		{"int4", tensor.KernelGeneric},
		{"int8-vector", tensor.KernelVector},
		{"int4-vector", tensor.KernelVector},
	} {
		bits := Bits8
		if tc.name[:4] == "int4" {
			bits = Bits4
		}
		q := QuantizeRows(data, rows, cols, bits)
		b.Run(tc.name, func(b *testing.B) {
			tensor.SetKernel(tc.kern)
			defer tensor.SetKernel(tensor.KernelAuto)
			acc := make([]float32, cols)
			for i := 0; i < b.N; i++ {
				q.AccumulateRow(acc, idx[i%len(idx)])
			}
		})
	}
}

// BenchmarkAccumulateBagByKernel measures the whole-bag pooling path —
// dispatch resolved once per bag, the word-wide decode per row — at a
// production-shaped pooling factor, per kernel.
func BenchmarkAccumulateBagByKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols, bag = 65536, 32, 64
	data := make([]float32, rows*cols)
	for i := range data {
		data[i] = rng.Float32()*2 - 1
	}
	q := QuantizeRows(data, rows, cols, Bits8)
	indices := make([]int32, bag)
	for i := range indices {
		indices[i] = int32(rng.Intn(rows))
	}
	for _, tc := range []struct {
		name string
		kern tensor.Kernel
	}{{"generic", tensor.KernelGeneric}, {"vector", tensor.KernelVector}} {
		b.Run(tc.name, func(b *testing.B) {
			tensor.SetKernel(tc.kern)
			defer tensor.SetKernel(tensor.KernelAuto)
			acc := make([]float32, cols)
			for i := 0; i < b.N; i++ {
				q.AccumulateBag(acc, indices)
			}
		})
	}
}

// Ablation: encode throughput by width — the cost of building a tiered
// shard's cold tier at boot, of Table III's compression and of an int8
// publish. Each arm encodes 65 536 values: the plain arms 4096 rows of 16
// uniform in [0, 1), the drm-d8 and drm-d16 arms rows of a DRM table's
// width with N(0, 0.1) values, as model.Build draws them. Each has a -ref
// twin running the reference encoder the kernels replaced, so the
// benchcheck faster-than assertion holds the encoder ahead of it within
// one run.
func BenchmarkQuantizeRowsByWidth(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const values = 65536
	uniform := make([]float32, values)
	for i := range uniform {
		uniform[i] = rng.Float32()
	}
	drm := make([]float32, values)
	for i := range drm {
		drm[i] = float32(rng.NormFloat64() * 0.1)
	}
	for _, shape := range []struct {
		prefix string
		cols   int
		data   []float32
	}{{"", 16, uniform}, {"drm-d8/", 8, drm}, {"drm-d16/", 16, drm}} {
		rows := values / shape.cols
		for _, bits := range []Bits{Bits8, Bits4} {
			name := shape.prefix + "int8"
			if bits == Bits4 {
				name = shape.prefix + "int4"
			}
			for _, arm := range []struct {
				suffix string
				encode func([]float32, int, int, Bits) *RowQuantized
			}{{"", QuantizeRows}, {"-ref", quantizeRowsRef}} {
				b.Run(name+arm.suffix, func(b *testing.B) {
					b.SetBytes(values * 4)
					for i := 0; i < b.N; i++ {
						arm.encode(shape.data, rows, shape.cols, bits)
					}
				})
			}
		}
	}
}
