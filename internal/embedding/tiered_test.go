package embedding

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/quant"
)

func tieredBackends(t *testing.T) map[string]Table {
	t.Helper()
	dense := NewDenseRandom(42, 0, 512, 24, 0.1)
	return map[string]Table{
		"fp32": dense,
		"fp16": dense.ToFP16(),
		"int8": dense.Quantize(quant.Bits8),
		"int4": dense.Quantize(quant.Bits4),
	}
}

// TestTieredHitMissBitIdentity pins the tiered store's core contract:
// the terms a pooled sum receives are bitwise identical whether a row
// comes from the hot cache, the cold tier's fused accumulate, or a
// decoded copy — for every cold backend. If this breaks, the migration
// identity guarantee breaks with it.
func TestTieredHitMissBitIdentity(t *testing.T) {
	for name, cold := range tieredBackends(t) {
		dec := cold.(RowDecoder)
		dim := cold.Dim()
		for idx := 0; idx < cold.NumRows(); idx += 37 {
			// Decoded copy, then added — the cache-hit arithmetic.
			row := make([]float32, dim)
			dec.DecodeRow(row, idx)
			viaDecode := make([]float32, dim)
			for i, v := range row {
				viaDecode[i] += v
			}
			// Fused accumulate — the cache-miss (and uncached) arithmetic.
			viaAccum := make([]float32, dim)
			cold.AccumulateRow(viaAccum, idx)
			for i := range viaDecode {
				if math.Float32bits(viaDecode[i]) != math.Float32bits(viaAccum[i]) {
					t.Fatalf("%s row %d col %d: decode+add %x != accumulate %x",
						name, idx, i, math.Float32bits(viaDecode[i]), math.Float32bits(viaAccum[i]))
				}
			}
		}
	}
}

// TestTieredPoolingMatchesCold replays the same bags through the cold
// backend and through a tiered wrapper (twice, so the second pass mixes
// hits into the same stream) and requires bitwise-equal pooled outputs.
func TestTieredPoolingMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, cold := range tieredBackends(t) {
		tiered := NewTiered(cold, 128)
		bags := make([]Bag, 32)
		for b := range bags {
			idx := make([]int32, 1+rng.Intn(20))
			for i := range idx {
				// Zipf-ish reuse so the cache actually admits and hits.
				idx[i] = int32(rng.Intn(64))
			}
			bags[b].Indices = idx
		}
		want := make([]float32, len(bags)*cold.Dim())
		SLS(want, cold, bags)
		for pass := 0; pass < 3; pass++ {
			got := make([]float32, len(bags)*cold.Dim())
			SLS(got, tiered, bags)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s pass %d: output %d = %x, want %x", name, pass, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
		st := tiered.Stats()
		if st.Hits == 0 {
			t.Fatalf("%s: repeated replay produced no cache hits (%+v)", name, st)
		}
	}
}

func TestTieredAdmissionByFrequency(t *testing.T) {
	cold := NewDenseRandom(1, 0, 256, 8, 0.1)
	tt := NewTiered(cold, 64)
	acc := make([]float32, 8)
	// A row seen once must not be admitted; seen admitAfter times it must.
	tt.AccumulateRow(acc, 7)
	if tt.CachedRows() != 0 {
		t.Fatalf("one touch admitted a row (cached %d)", tt.CachedRows())
	}
	for i := 0; i < admitAfter; i++ {
		tt.AccumulateRow(acc, 7)
	}
	if tt.CachedRows() != 1 {
		t.Fatalf("row not admitted after %d touches (cached %d)", admitAfter+1, tt.CachedRows())
	}
	st := tt.Stats()
	if st.Hits == 0 || st.Admits != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestTieredSetCapacityAndInvalidate(t *testing.T) {
	cold := NewDenseRandom(2, 0, 256, 8, 0.1)
	tt := NewTiered(cold, 100)
	if got := tt.Capacity(); got != 64 {
		t.Fatalf("capacity floors to a power of two: got %d, want 64", got)
	}
	acc := make([]float32, 8)
	for pass := 0; pass < 4; pass++ {
		for idx := 0; idx < 32; idx++ {
			tt.AccumulateRow(acc, idx)
		}
	}
	if tt.CachedRows() == 0 {
		t.Fatal("no rows cached after repeated access")
	}
	warm := tt.CachedRows()
	// Growing rehashes the warm entries instead of dropping them.
	tt.SetCapacity(256)
	if tt.Capacity() != 256 {
		t.Fatalf("capacity = %d, want 256", tt.Capacity())
	}
	if tt.CachedRows() == 0 || tt.CachedRows() > warm {
		t.Fatalf("resize lost the warm set: %d -> %d", warm, tt.CachedRows())
	}
	if tt.CacheBytes() != int64(256*8*4) {
		t.Fatalf("cache backing bytes = %d, want %d", tt.CacheBytes(), 256*8*4)
	}
	if want := cold.Bytes() + tt.CacheBytes(); tt.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", tt.Bytes(), want)
	}
	tt.Invalidate()
	if tt.CachedRows() != 0 {
		t.Fatalf("invalidate left %d rows", tt.CachedRows())
	}
	// Capacity 0 disables the cache entirely.
	tt.SetCapacity(0)
	if tt.Capacity() != 0 || tt.CacheBytes() != 0 {
		t.Fatalf("capacity 0 not disabled: cap %d bytes %d", tt.Capacity(), tt.CacheBytes())
	}
	tt.AccumulateRow(acc, 3) // must not panic with the cache disabled
}

func TestTieredOutOfRangePanics(t *testing.T) {
	cold := NewDenseRandom(3, 0, 16, 4, 0.1)
	tt := NewTiered(cold, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	tt.AccumulateRow(make([]float32, 4), 16)
}

// TestTieredConcurrentPooling hammers one tiered table from many
// goroutines (the -race job turns this into the coherence check).
func TestTieredConcurrentPooling(t *testing.T) {
	cold := NewDenseRandom(4, 0, 1024, 16, 0.1).Quantize(quant.Bits8)
	tt := NewTiered(cold, 256)
	want := make([]float32, 16)
	cold.AccumulateRow(want, 11)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			acc := make([]float32, 16)
			bag := make([]int32, 12)
			for i := 0; i < 300; i++ {
				for j := range bag {
					bag[j] = int32(rng.Intn(64))
				}
				tt.AccumulateBag(acc, bag)
				if i%17 == 0 {
					tt.SetCapacity(128 + (i%3)*128)
				}
				if i%43 == 0 {
					tt.Invalidate()
				}
				// Single-row identity under concurrency.
				one := make([]float32, 16)
				tt.AccumulateRow(one, 11)
				for c := range one {
					if math.Float32bits(one[c]) != math.Float32bits(want[c]) {
						t.Errorf("concurrent read returned wrong bits at col %d", c)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
