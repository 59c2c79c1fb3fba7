package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/sharding"
)

// Tiered embedding storage inside the sparse serving path: each shard can
// encode its tables to a smaller cold tier and keep a bounded hot-row
// cache in front of the fp32 and fp16 ones. The capacity planner
// (sharding.PlanTiers) decides per-table precision; the shard-side
// controller here owns the cache byte budget, apportioning it across the
// shard's cached tables by their *measured* load share — the same
// LoadSummary accounting the online rebalancer plans from — and
// re-apportioning whenever the table set changes (install, migration
// commit, forward, release).
//
// Coherence rules under live migration: a hot-row cache belongs to one
// table *copy* and dies with it. A table committed from migration staging
// starts with a cold cache (nothing stale can survive the transfer); a
// source that releases its copy drops the cache with it; the double-read
// grace window keeps serving from the retained copy's cache, which stays
// valid because table storage is immutable. Encoded (fp16/int8) tables
// stream their cold-tier bytes verbatim (table.read → stage.put), so a
// moved table is bit-identical to the source's — the PR-2 double-read
// identity guarantee holds with tiering enabled.

// TierConfig enables tiered storage on a sparse shard.
type TierConfig struct {
	// CacheMB is the shard-wide hot-row cache byte budget over the fp32
	// and fp16 cold tiers (0 disables caching; cold-tier encoding still
	// applies). An int8/int4 cold tier is never cached.
	CacheMB float64
	// Plan assigns per-table cold precisions; nil keeps every table fp32
	// (cache-only tiering).
	Plan *sharding.TierPlan
}

// Cold-tier encodings on the wire (TableShape.Enc).
const (
	TierEncFP32 int32 = 0
	TierEncFP16 int32 = 1
	TierEncInt8 int32 = 2
	TierEncInt4 int32 = 3
)

// coldOf unwraps a tiered table to its cold-tier backend.
func coldOf(t embedding.Table) embedding.Table {
	if tt, ok := t.(*embedding.TieredTable); ok {
		return tt.Cold()
	}
	return t
}

// tierEncStride returns the wire bytes per row of a cold tier at the
// given dim — fp32 is simply the 4·dim case.
func tierEncStride(enc, dim int32) (int, error) {
	switch enc {
	case TierEncFP32:
		return 4 * int(dim), nil
	case TierEncFP16:
		return 2 * int(dim), nil
	case TierEncInt8:
		return 4 + int(dim), nil
	case TierEncInt4:
		return 4 + (int(dim)+1)/2, nil
	}
	return 0, fmt.Errorf("core: unknown cold-tier encoding %d", enc)
}

// rowStore is cold-tier storage that reads and writes row ranges in its
// wire encoding: the one form table rows take between shards, so a
// streamed table is bit-identical to its source at every precision.
type rowStore interface {
	AppendRowRange(dst []byte, lo, hi int) []byte
	SetRowRange(lo int, raw []byte) (int, error)
}

// rowsOf exposes a table's cold tier as a rowStore and classifies its
// wire encoding.
func rowsOf(t embedding.Table) (rowStore, int32, error) {
	switch cold := coldOf(t).(type) {
	case *embedding.Dense:
		return cold, TierEncFP32, nil
	case *embedding.FP16:
		return cold.Encoding(), TierEncFP16, nil
	case *embedding.Quantized:
		if cold.Encoding().Bits == quant.Bits4 {
			return cold.Encoding(), TierEncInt4, nil
		}
		return cold.Encoding(), TierEncInt8, nil
	}
	return nil, 0, fmt.Errorf("core: cannot stream rows of %T", t)
}

// newRowStore allocates zeroed storage for a shape.
func newRowStore(sh TableShape) (rowStore, error) {
	rows, dim := int(sh.Rows), int(sh.Dim)
	switch sh.Enc {
	case TierEncFP32:
		return embedding.NewDense(rows, dim), nil
	case TierEncFP16:
		return quant.NewFP16Rows(rows, dim), nil
	case TierEncInt8:
		return quant.NewRowQuantizedEmpty(rows, dim, quant.Bits8), nil
	case TierEncInt4:
		return quant.NewRowQuantizedEmpty(rows, dim, quant.Bits4), nil
	}
	return nil, fmt.Errorf("core: unknown cold-tier encoding %d", sh.Enc)
}

// cloneRows copies storage into the heap in the same encoding. The
// source may be mmap-backed and is never written through.
func cloneRows(src rowStore) rowStore {
	switch s := src.(type) {
	case *embedding.Dense:
		return &embedding.Dense{RowsN: s.RowsN, DimN: s.DimN, Data: append([]float32(nil), s.Data...)}
	case *quant.FP16Rows:
		c := quant.NewFP16Rows(s.Rows, s.Cols)
		copy(c.Data, s.Data)
		return c
	case *quant.RowQuantized:
		c := quant.NewRowQuantizedEmpty(s.Rows, s.Cols, s.Bits)
		copy(c.Scales, s.Scales)
		copy(c.Biases, s.Biases)
		copy(c.Packed, s.Packed)
		return c
	}
	panic(fmt.Sprintf("core: cloneRows of %T", src))
}

// tableOf materializes storage as a serving table.
func tableOf(rows rowStore) (embedding.Table, error) {
	switch s := rows.(type) {
	case *embedding.Dense:
		return s, nil
	case *quant.FP16Rows:
		return embedding.FP16FromEncoding(s), nil
	case *quant.RowQuantized:
		return embedding.QuantizedFromEncoding(s.Rows, s.Cols, int(s.Bits), s.Scales, s.Biases, s.Packed)
	}
	return nil, fmt.Errorf("core: no table over %T", rows)
}

// SetTier enables tiered storage, re-wrapping any already-installed
// tables (drmserve's shard-file path imports first, tiers second) on
// GOMAXPROCS workers (wrapAll) and apportioning the cache budget.
func (s *SparseShard) SetTier(cfg *TierConfig) {
	s.mu.Lock()
	s.tier = cfg
	s.wrapAll()
	s.mu.Unlock()
	s.retier()
}

// tierWrap applies the shard's tier config to a table about to be
// installed: encode a dense cold tier to the planned precision, then
// front an fp32 or fp16 one with a (initially empty) hot-row cache when a
// budget exists. A quantized cold tier is installed bare: it pools
// through embedding.Pool's prefetched walk, which costs less than the
// cache's hit did. Already-encoded tables (staged-commit output) keep
// their encoding.
func (s *SparseShard) tierWrap(id int, t embedding.Table) embedding.Table {
	if s.tier == nil {
		return t
	}
	cold := coldOf(t)
	if d, ok := cold.(*embedding.Dense); ok {
		switch s.tier.Plan.Precision(id) {
		case sharding.PrecisionFP16:
			cold = d.ToFP16()
		case sharding.PrecisionInt8:
			cold = d.Quantize(quant.Bits8)
		}
	}
	if _, quantized := cold.(*embedding.Quantized); quantized || s.tier.CacheMB <= 0 {
		return cold
	}
	return embedding.NewTiered(cold, 0)
}

// wrapAll applies tierWrap to every held table on runtime.GOMAXPROCS(0)
// workers, largest table first so the last one a worker takes is a small
// one. Encodings do not depend on which worker ran them. Callers hold mu.
func (s *SparseShard) wrapAll() {
	if s.tier == nil {
		return
	}
	keys := sortedTableKeys(s.tables)
	sort.SliceStable(keys, func(i, j int) bool { return s.tables[keys[i]].Bytes() > s.tables[keys[j]].Bytes() })
	out := make([]embedding.Table, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(keys)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				out[i] = s.tierWrap(keys[i].id, s.tables[keys[i]])
			}
		}()
	}
	wg.Wait()
	for i, key := range keys {
		s.tables[key] = out[i]
	}
}

// retier re-apportions the shard's cache byte budget across its tiered
// tables by measured load share (LoadSummary weight: service seconds, or
// lookups when timing is absent), falling back to cold-byte share before
// any load is observed. Called whenever the table set changes; resizing
// caches never changes results (see embedding.TieredTable), only where
// the byte budget does the most good.
func (s *SparseShard) retier() {
	s.mu.RLock()
	tier := s.tier
	s.mu.RUnlock()
	if tier == nil || tier.CacheMB <= 0 {
		return
	}
	// Apportion from the live accumulator merged with the last collected
	// window: a rebalance pass resets the accumulator (CollectLoad(true))
	// right before the migration installs that trigger retiering, and
	// budgeting from the near-empty residue would shrink exactly the hot
	// caches the measured window had earned.
	s.loadMu.Lock()
	load := s.load.Clone()
	load.Merge(s.lastLoad)
	s.loadMu.Unlock()

	type cacheTab struct {
		tt     *embedding.TieredTable
		weight float64
		bytes  float64
	}
	// The budget split below is float arithmetic: apportion in table-key
	// order so every run of the same table set computes identical sizes
	// regardless of map iteration order.
	var tabs []cacheTab
	s.mu.RLock()
	for _, key := range sortedTableKeys(s.tables) {
		tt, ok := s.tables[key].(*embedding.TieredTable)
		if !ok {
			continue
		}
		tabs = append(tabs, cacheTab{tt: tt, weight: load.Weight(key.loadKey()), bytes: float64(tt.Cold().Bytes())})
	}
	s.mu.RUnlock()
	var total, totalBytes float64
	for _, ct := range tabs {
		total += ct.weight
		totalBytes += ct.bytes
	}
	if len(tabs) == 0 || totalBytes <= 0 {
		return
	}
	if total <= 0 {
		// No load observed yet: split by cold-tier bytes.
		for i := range tabs {
			tabs[i].weight = tabs[i].bytes
		}
		total = totalBytes
	} else {
		// Bytes-proportional floor on top of measured load: a table that
		// just migrated in has zero measured load *here* — it moved
		// because it was hot at the source — and a pure load split would
		// leave it cacheless until the next table-set change. The floor
		// seeds every table with a slice of ~10% of the budget; the next
		// load window earns it a real share.
		const floorFrac = 0.1
		for i := range tabs {
			tabs[i].weight += floorFrac * total * tabs[i].bytes / totalBytes
		}
		total *= 1 + floorFrac
	}
	budget := tier.CacheMB * float64(1<<20)
	for _, ct := range tabs {
		rowBytes := float64(ct.tt.Dim() * 4)
		rows := int(budget * ct.weight / total / rowBytes)
		if n := ct.tt.NumRows(); rows > n {
			rows = n
		}
		ct.tt.SetCapacity(rows)
	}
}

// TierStats aggregates a shard's tiered-storage behavior.
type TierStats struct {
	// Tables counts installed tables/parts; FP32/FP16/Int8 split them by
	// cold-tier encoding (Int8 includes int4).
	Tables, FP32, FP16, Int8 int
	// ColdBytes is the encoded cold-tier footprint; CacheBytes the live
	// cached-row bytes; CacheCapBytes the apportioned budget ceiling.
	ColdBytes, CacheBytes, CacheCapBytes int64
	// Hits/Misses/Admits sum the hot-row caches' counters.
	Hits, Misses, Admits int64
}

// HitRate returns the aggregate cache hit rate (0 when unused).
func (ts TierStats) HitRate() float64 {
	if ts.Hits+ts.Misses == 0 {
		return 0
	}
	return float64(ts.Hits) / float64(ts.Hits+ts.Misses)
}

// TierSnapshot reports the shard's current tiered-storage state.
func (s *SparseShard) TierSnapshot() TierStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out TierStats
	for _, tab := range s.tables {
		out.Tables++
		cold := coldOf(tab)
		switch cold.(type) {
		case *embedding.FP16:
			out.FP16++
		case *embedding.Quantized:
			out.Int8++
		default:
			out.FP32++
		}
		out.ColdBytes += cold.Bytes()
		if tt, ok := tab.(*embedding.TieredTable); ok {
			st := tt.Stats()
			out.CacheBytes += int64(st.CachedRows) * int64(tt.Dim()) * 4
			out.CacheCapBytes += int64(st.Capacity) * int64(tt.Dim()) * 4
			out.Hits += st.Hits
			out.Misses += st.Misses
			out.Admits += st.Admits
		}
	}
	return out
}
