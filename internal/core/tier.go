package core

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/quant"
	"repro/internal/sharding"
)

// Tiered embedding storage inside the sparse serving path: each shard can
// encode its tables to a smaller cold tier and keep a bounded hot-row
// cache in front of the fp32 and fp16 ones. The capacity planner
// (sharding.PlanTiers) decides per-table precision; the shard-side
// controller here owns the cache byte budget, splitting it across the
// shard's cached tables by their cold-tier bytes and re-splitting it
// whenever the table set changes (install, migration commit, release).
//
// Coherence rules under live migration: a hot-row cache belongs to one
// table *copy* and dies with it. A table committed from migration staging
// starts with a cold cache (nothing stale can survive the transfer); the
// source's retained copy keeps serving the old plan's requests from its
// own cache, which stays valid because table storage is immutable, until
// table.release drops copy and cache together. Encoded (fp16/int8) tables
// stream their cold-tier bytes verbatim (table.read → stage.put), so a
// moved table is bit-identical to the source's and the cutover identity
// guarantee holds with tiering enabled.

// TierConfig enables tiered storage on a sparse shard.
type TierConfig struct {
	// CacheMB is the shard-wide hot-row cache byte budget over the fp32
	// and fp16 cold tiers (0 disables caching; cold-tier encoding still
	// applies). An int8 cold tier is never cached.
	CacheMB float64
	// Plan assigns per-table cold precisions; nil keeps every table fp32
	// (cache-only tiering).
	Plan *sharding.TierPlan
}

// Cold-tier encodings on the wire (TableShape.Enc) and in shard files.
// Any other code is refused.
const (
	TierEncFP32 int32 = 0
	TierEncFP16 int32 = 1
	TierEncInt8 int32 = 2
)

// rowLayouts holds each encoding's row layout by code: a row is hdr
// header bytes (int8's fp16 scale and bias) then width bytes per value.
// The wire streams rows whole; a shard file keeps the headers in a
// section of their own.
var rowLayouts = [...]struct{ hdr, width int }{
	TierEncFP32: {0, 4},
	TierEncFP16: {0, 2},
	TierEncInt8: {4, 1},
}

// rowLayout returns an encoding's bytes per row at dim and how many of
// them are the row's header.
func rowLayout(enc int32, dim int) (stride, hdr int, err error) {
	if enc < 0 || int(enc) >= len(rowLayouts) {
		return 0, 0, fmt.Errorf("core: unknown cold-tier encoding %d", enc)
	}
	l := rowLayouts[enc]
	return l.hdr + l.width*dim, l.hdr, nil
}

// coldOf unwraps a tiered table to its cold-tier backend.
func coldOf(t embedding.Table) embedding.Table {
	if tt, ok := t.(*embedding.TieredTable); ok {
		return tt.Cold()
	}
	return t
}

// rowStore is a cold tier: a serving table whose rows read and write in
// its wire encoding, the one form table rows take between shards, so a
// streamed table is bit-identical to its source at every precision.
type rowStore interface {
	embedding.Table
	AppendRowRange(dst []byte, lo, hi int) []byte
	SetRowRange(lo int, raw []byte) (int, error)
}

// rowsOf returns a table's cold tier and its wire encoding. Of quant's
// widths only int8 has one: int4 tables are served singular.
func rowsOf(t embedding.Table) (rowStore, int32, error) {
	switch cold := coldOf(t).(type) {
	case *embedding.Dense:
		return cold, TierEncFP32, nil
	case *quant.FP16Rows:
		return cold, TierEncFP16, nil
	case *quant.RowQuantized:
		if cold.Bits == quant.Bits8 {
			return cold, TierEncInt8, nil
		}
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

// SetTier enables tiered storage over the installed tables (a shard
// boots its tables first, tiers second) and apportions the cache budget.
// A table stored in another encoding than the plan's fails it, leaving
// the shard untiered.
func (s *SparseShard) SetTier(cfg *TierConfig) error {
	s.mu.Lock()
	s.tier = cfg
	err := s.wrapAll()
	if err != nil {
		s.tier = nil
	}
	s.mu.Unlock()
	if err == nil {
		s.retier()
	}
	return err
}

// planEnc is the cold-tier encoding a tier plan assigns table id.
func planEnc(tier *sharding.TierPlan, id int) int32 {
	switch tier.Precision(id) {
	case sharding.PrecisionFP16:
		return TierEncFP16
	case sharding.PrecisionInt8:
		return TierEncInt8
	}
	return TierEncFP32
}

// tierWrap applies the shard's tier config to a table about to be
// installed. The table arrives in its planned encoding — from a shard
// image, a staged commit or a rebuild stream — and any other is refused:
// a shard never encodes. An fp32 or fp16 cold tier is fronted with an
// (initially empty) hot-row cache when a budget exists. A quantized one
// is installed bare: it pools through embedding.Pool's prefetched walk,
// which costs less than the cache's hit did.
func (s *SparseShard) tierWrap(id int, t embedding.Table) (embedding.Table, error) {
	if s.tier == nil {
		return t, nil
	}
	cold, enc, err := rowsOf(t)
	if err == nil && enc != planEnc(s.tier.Plan, id) {
		err = fmt.Errorf("core: table %d is stored in encoding %d, its tier plan says %d", id, enc, planEnc(s.tier.Plan, id))
	}
	if err != nil || enc == TierEncInt8 || s.tier.CacheMB <= 0 {
		return cold, err
	}
	return embedding.NewTiered(cold, 0), nil
}

// wrapAll applies tierWrap to every held table, or to none when one is
// refused. Callers hold mu.
func (s *SparseShard) wrapAll() error {
	wrapped := make(map[sharding.TableLoadKey]embedding.Table, len(s.tables))
	for _, key := range sortedTableKeys(s.tables) {
		t, err := s.tierWrap(key.TableID, s.tables[key])
		if err != nil {
			return fmt.Errorf("%w (part %d)", err, key.PartIndex)
		}
		wrapped[key] = t
	}
	s.tables = wrapped
	return nil
}

// retier splits the shard's cache byte budget across its cached tables
// in proportion to their cold-tier bytes. Called whenever the table set
// changes; resizing caches never changes results (see
// embedding.TieredTable), only where the byte budget does the most good.
// Each table's share depends only on its bytes and the total, so the
// split does not depend on map iteration order.
func (s *SparseShard) retier() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tier == nil || s.tier.CacheMB <= 0 {
		return
	}
	var tabs []*embedding.TieredTable
	var total int64
	for _, t := range s.tables {
		if tt, ok := t.(*embedding.TieredTable); ok {
			tabs = append(tabs, tt)
			total += tt.Cold().Bytes()
		}
	}
	budget := s.tier.CacheMB * float64(1<<20)
	for _, tt := range tabs {
		rowBytes := float64(tt.Dim() * 4)
		rows := int(budget * float64(tt.Cold().Bytes()) / float64(total) / rowBytes)
		tt.SetCapacity(min(rows, tt.NumRows()))
	}
}

// TierStats aggregates a shard's tiered-storage behavior.
type TierStats struct {
	// Tables counts installed tables/parts; FP32/FP16/Int8 split them by
	// cold-tier encoding.
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
	out := TierStats{Tables: len(s.tables)}
	var byEnc [len(rowLayouts)]int
	for _, tab := range s.tables {
		_, enc, _ := rowsOf(tab) // a table with no wire encoding counts as fp32
		byEnc[enc]++
		out.ColdBytes += coldOf(tab).Bytes()
		if tt, ok := tab.(*embedding.TieredTable); ok {
			st := tt.Stats()
			out.CacheBytes += int64(st.CachedRows) * int64(tt.Dim()) * 4
			out.CacheCapBytes += int64(st.Capacity) * int64(tt.Dim()) * 4
			out.Hits += st.Hits
			out.Misses += st.Misses
			out.Admits += st.Admits
		}
	}
	out.FP32, out.FP16, out.Int8 = byEnc[TierEncFP32], byEnc[TierEncFP16], byEnc[TierEncInt8]
	return out
}
