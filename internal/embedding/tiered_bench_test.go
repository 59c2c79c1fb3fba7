package embedding

import (
	"math/rand"
	"testing"

	"repro/internal/quant"
)

// Pooling benchmarks for the tiered store: the cache must beat (or at
// worst match) the cold tier it fronts, per row-popularity profile.

func benchBags(rng *rand.Rand, rows, bags, pooling int, zipf bool) []Bag {
	var z *rand.Zipf
	if zipf {
		z = rand.NewZipf(rng, 1.2, 1, uint64(rows-1))
	}
	out := make([]Bag, bags)
	for b := range out {
		idx := make([]int32, pooling)
		for i := range idx {
			if z != nil {
				idx[i] = int32(z.Uint64())
			} else {
				idx[i] = int32(rng.Intn(rows))
			}
		}
		out[b].Indices = idx
	}
	return out
}

func benchPooling(b *testing.B, table Table, zipf bool) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	l := Flatten(benchBags(rng, table.NumRows(), 64, 24, zipf))
	entries := []PoolEntry{{Table: table, Lens: l.Lens, Indices: l.Indices, Out: make([]float32, len(l.Lens)*table.Dim()), Stride: table.Dim()}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pool(entries)
	}
}

func BenchmarkPoolingDense(b *testing.B) {
	t := NewDenseRandom(1, 0, 1<<16, 64, 0.1)
	benchPooling(b, t, true)
}

func BenchmarkPoolingInt8(b *testing.B) {
	t := NewDenseRandom(1, 0, 1<<16, 64, 0.1).Quantize(quant.Bits8)
	benchPooling(b, t, true)
}

func BenchmarkPoolingFP16(b *testing.B) {
	t := NewDenseRandom(1, 0, 1<<16, 64, 0.1).ToFP16()
	benchPooling(b, t, true)
}

func BenchmarkPoolingTieredInt8Zipf(b *testing.B) {
	cold := NewDenseRandom(1, 0, 1<<16, 64, 0.1).Quantize(quant.Bits8)
	benchPooling(b, NewTiered(cold, 1<<13), true)
}

func BenchmarkPoolingTieredInt8Uniform(b *testing.B) {
	cold := NewDenseRandom(1, 0, 1<<16, 64, 0.1).Quantize(quant.Bits8)
	benchPooling(b, NewTiered(cold, 1<<13), false)
}
