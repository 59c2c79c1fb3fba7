package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Ablation: fused SLS-into-concat (production-style) vs per-table SLS
// followed by Concat (the naive operator graph). DESIGN.md calls out the
// fusion as a deliberate design choice; this bench quantifies it.
func BenchmarkSLSFusedVsPerTable(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const nTables, rows, dim, bags = 64, 2048, 16, 8
	tables := make([]embedding.Table, nTables)
	for i := range tables {
		tables[i] = embedding.NewDenseRandom(1, i, rows, dim, 1)
	}
	mkWS := func() *Workspace {
		ws := NewWorkspace()
		for ti := 0; ti < nTables; ti++ {
			bagSet := make([]embedding.Bag, bags)
			for bi := range bagSet {
				for k := 0; k < 3; k++ {
					bagSet[bi].Indices = append(bagSet[bi].Indices, int32(rng.Intn(rows)))
				}
			}
			ws.SetBags(fmt.Sprintf("bags_%d", ti), embedding.Flatten(bagSet))
		}
		return ws
	}

	b.Run("fused", func(b *testing.B) {
		ws := mkWS()
		op := &FusedSLS{OpName: "fused", Output: "emb", Cols: nTables * dim}
		for ti := 0; ti < nTables; ti++ {
			op.Entries = append(op.Entries, FusedSLSEntry{
				Table: tables[ti], InputBags: fmt.Sprintf("bags_%d", ti), ColOffset: ti * dim,
			})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op.Run(ws); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("per-table+concat", func(b *testing.B) {
		ws := mkWS()
		sls := &MultiSLS{OpName: "multi", Entries: make([]embedding.PoolEntry, nTables)}
		concat := &ConcatOp{OpName: "concat", Output: "emb"}
		for ti := 0; ti < nTables; ti++ {
			concat.Inputs = append(concat.Inputs, fmt.Sprintf("pooled_%d", ti))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The naive graph materializes one output blob per table.
			for ti := range sls.Entries {
				bagSet, _ := ws.Bags(fmt.Sprintf("bags_%d", ti))
				out := tensor.New(bags, dim)
				sls.Entries[ti] = embedding.PoolEntry{Table: tables[ti], Lens: bagSet.Lens, Indices: bagSet.Indices, Out: out.Data, Stride: dim}
				ws.SetBlob(concat.Inputs[ti], out)
			}
			if err := sls.Run(ws); err != nil {
				b.Fatal(err)
			}
			if err := concat.Run(ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the dense substrate's GEMM at the model's operating shapes
// (the projection layer dominates Fig. 4's dense share).
func BenchmarkFCProjectionShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range []struct{ batch, in, out int }{
		{8, 3536, 256}, // DRM1 net2 projection
		{16, 896, 256}, // DRM1 net1 projection
		{8, 416, 256},  // DRM3 projection
	} {
		b.Run(fmt.Sprintf("%dx%d->%d", shape.batch, shape.in, shape.out), func(b *testing.B) {
			ws := NewWorkspace()
			in := make([]float32, shape.batch*shape.in)
			for i := range in {
				in[i] = rng.Float32()
			}
			w := make([]float32, shape.in*shape.out)
			for i := range w {
				w[i] = rng.Float32()
			}
			op := &FC{
				OpName: "fc",
				W:      tensor.FromSlice(shape.in, shape.out, w),
				Input:  "in", Output: "out",
			}
			ws.SetBlob("in", tensor.FromSlice(shape.batch, shape.in, in))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op.Run(ws); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * int64(shape.batch) * int64(shape.in) * int64(shape.out)
			b.SetBytes(flops) // MB/s column ≈ MFLOP/s
		})
	}
}
