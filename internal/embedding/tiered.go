package embedding

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TieredTable is the serving-path tiered store for one table (or one
// row-partition): a bounded cache of decoded hot rows in front of a cold
// tier (fp32 Dense, fp16, or row-wise int8/int4 storage). The paper's
// scale-out is capacity-driven — tables are sharded because they do not
// fit one node — so shrinking resident bytes (quantized cold tier) and
// dodging repeated decodes of skewed-hot rows (the cache) both attack the
// quantity that sets shard count. A sparse shard fronts only fp32 and
// fp16 cold tiers with it: a resident int8/int4 bag pools through Pool's
// prefetched walk for less than a cache hit costs.
//
// The cache is direct-mapped with all row storage inline in one flat
// backing array: a hit is an array index, an int compare, and the add.
// Anything heavier — a map lookup, a per-row lock, LRU bookkeeping, or a
// heap object per cached row whose GC mark cost surfaces as tail spikes —
// costs more than the dequantization the cache saves. Locking is
// per-*bag*, not per-row: a pooling pass takes one shared read lock for
// the whole bag, and its admissions take one exclusive lock, so lock
// traffic amortizes over the pooling factor.
//
// Admission is by measured per-row hit frequency: a miss records the row
// in a compact decaying sketch, and the row is admitted only once its
// estimated frequency reaches the admission threshold *and* at least
// ties the resident it would displace, so one-shot scans cannot flush
// the hot set — the failure mode of recency-only caches under the long
// uniform tail of embedding accesses.
//
// Correctness contract: AccumulateRow/AccumulateBag contribute bitwise-
// identical terms whether a row is served from the cache or decoded from
// the cold tier. Both paths add the row's *decoded* values (RowDecoder
// materializes them; the cache stores that exact copy), so enabling,
// resizing, or invalidating the cache can never change a pooled result —
// the property the migration identity guarantee leans on.
type TieredTable struct {
	cold    Table
	decoder RowDecoder

	// mu guards the slot generation's contents: shared for pooling reads,
	// exclusive for admissions and resizes.
	mu sync.RWMutex
	// slots is the live direct-mapped generation; nil while the cache is
	// disabled. Swapped wholesale on SetCapacity/Invalidate.
	slots *tierSlots

	// freq is a tiny saturating-counter sketch (TinyLFU-style): counters
	// indexed by a cheap hash of the row index, halved every aging window
	// of misses so stale popularity decays. Guarded by mu (exclusive).
	freq    []uint8
	touches int

	hits, misses, admits atomic.Int64
}

// tierSlots is one generation of the direct-mapped cache: slot i caches
// row idx[i] (-1 when empty) at rows[i*dim : (i+1)*dim]. ref[i] is the
// slot's reference bit: set by hits (atomically, under the shared lock),
// cleared when a challenger tries to take the slot — a resident that was
// hit since the last challenge survives it, so the cache's hot set is
// protected by *observed hits*, not by the miss-fed sketch alone (a
// popular resident stops missing, so its sketch count goes stale).
type tierSlots struct {
	mask   uint32
	dim    int
	idx    []int32
	ref    []atomic.Bool
	rows   []float32
	cached int // occupied slots
}

func newTierSlots(slotCount, dim int) *tierSlots {
	ts := &tierSlots{
		mask: uint32(slotCount - 1),
		dim:  dim,
		idx:  make([]int32, slotCount),
		ref:  make([]atomic.Bool, slotCount),
		rows: make([]float32, slotCount*dim),
	}
	for i := range ts.idx {
		ts.idx[i] = -1
	}
	return ts
}

// admitAfter is the sketch count a row needs before it may occupy a
// slot: seen at least this many times within the aging window. Together
// with maxAdmitPerBag and missSample it bounds admission churn — every
// admission decodes a row under the exclusive lock, so the long Zipf
// tail re-qualifying over and over would otherwise stall readers and
// show up exactly where the cache is supposed to help: the tail.
const admitAfter = 3

// maxAdmitPerBag caps how many rows one pooling pass may admit.
const maxAdmitPerBag = 4

// missSample caps how many of a bag's misses feed the admission pass
// (and the sketch). Sampling keeps the miss path allocation-free — the
// sample lives on the caller's stack — and TinyLFU-style sketches are
// estimates by construction, so sampled touches lose nothing the decay
// window wasn't already losing.
const missSample = 16

// NewTiered wraps cold with a hot-row cache of capacity rows. The cold
// backend must implement RowDecoder (Dense and the quant encodings do).
// A capacity of 0 disables caching until SetCapacity raises it.
func NewTiered(cold Table, capacity int) *TieredTable {
	dec, ok := cold.(RowDecoder)
	if !ok {
		panic(fmt.Sprintf("embedding: tiered cold tier %T cannot decode rows", cold))
	}
	t := &TieredTable{cold: cold, decoder: dec}
	t.SetCapacity(capacity)
	return t
}

// slotCountFor floors a row budget to a power of two (so residency never
// exceeds the apportioned budget), with 0 disabling the cache.
func slotCountFor(capacity int) int {
	if capacity < 1 {
		return 0
	}
	n := 1
	for n*2 <= capacity {
		n *= 2
	}
	return n
}

// SetCapacity resizes the cache to (the floor power of two of) capacity
// rows, rehashing surviving entries into the new generation. The shard's
// tier controller calls this when a table-set change re-splits the
// shard-wide cache byte budget; an unchanged slot count is a no-op, so a
// split that leaves a table's share in place does not disturb its warm
// cache.
func (t *TieredTable) SetCapacity(capacity int) {
	want := slotCountFor(capacity)
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.slots
	if (old == nil && want == 0) || (old != nil && len(old.idx) == want) {
		return
	}
	// Size the sketch alongside: a few counters per slot, floor 256.
	w := 256
	for w < 4*want {
		w <<= 1
	}
	if len(t.freq) != w {
		t.freq = make([]uint8, w)
		t.touches = 0
	}
	if want == 0 {
		t.slots = nil
		return
	}
	fresh := newTierSlots(want, t.cold.Dim())
	if old != nil {
		// Keep the cache warm across a resize: rehash entries that still
		// fit (first occupant of a slot wins).
		for i, ix := range old.idx {
			if ix < 0 {
				continue
			}
			s := uint32(ix) & fresh.mask
			if fresh.idx[s] == -1 {
				fresh.idx[s] = ix
				copy(fresh.rows[int(s)*fresh.dim:(int(s)+1)*fresh.dim], old.rows[i*old.dim:(i+1)*old.dim])
				fresh.cached++
			}
		}
	}
	t.slots = fresh
}

// Capacity returns the cache's current slot count.
func (t *TieredTable) Capacity() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.slots != nil {
		return len(t.slots.idx)
	}
	return 0
}

// Invalidate drops every cached row (frequency history survives: the
// rows are still hot, the copies are just gone).
func (t *TieredTable) Invalidate() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.slots != nil {
		t.slots = newTierSlots(len(t.slots.idx), t.slots.dim)
	}
}

// Cold exposes the cold-tier backend (migration streams its encoding).
func (t *TieredTable) Cold() Table { return t.cold }

// NumRows implements Table.
func (t *TieredTable) NumRows() int { return t.cold.NumRows() }

// Dim implements Table.
func (t *TieredTable) Dim() int { return t.cold.Dim() }

// CachedRows returns the number of live cached rows.
func (t *TieredTable) CachedRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.slots != nil {
		return t.slots.cached
	}
	return 0
}

// Bytes implements Table: cold storage plus the cache's allocated
// backing — the shard's true resident footprint (the backing is
// allocated eagerly, so it counts whether or not every slot is full).
func (t *TieredTable) Bytes() int64 {
	return t.cold.Bytes() + t.CacheBytes()
}

// CacheBytes returns the cache backing's allocated footprint.
func (t *TieredTable) CacheBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.slots != nil {
		return int64(len(t.slots.rows)) * 4
	}
	return 0
}

// sketchSlot hashes a row index into the frequency sketch.
func (t *TieredTable) sketchSlot(idx int32) int {
	h := uint32(idx) * 2654435761 // Knuth multiplicative hash
	return int(h) & (len(t.freq) - 1)
}

// touchLocked records one miss and returns the row's estimated
// frequency; callers hold mu exclusively. Counters halve once the window
// has seen 8× the slot count of misses, so popularity tracks the recent
// workload.
func (t *TieredTable) touchLocked(idx int32, slotCount int) uint8 {
	slot := t.sketchSlot(idx)
	if t.freq[slot] < 255 {
		t.freq[slot]++
	}
	t.touches++
	if window := 8 * (slotCount + 1); t.touches >= window {
		for i := range t.freq {
			t.freq[i] >>= 1
		}
		t.touches = 0
	}
	return t.freq[slot]
}

// AccumulateRow implements Table, serving hot rows from the cache and
// decoding cold ones on demand. Hit or miss, the terms added to acc are
// the row's decoded values — bitwise identical either way.
func (t *TieredTable) AccumulateRow(acc []float32, idx int) {
	one := [1]int32{int32(idx)}
	t.AccumulateBag(acc, one[:])
}

// AccumulateBag pools one bag's rows into acc in strict index order —
// the amortized serving path: one shared lock for the bag's lookups, at
// most one exclusive lock for its admissions. Order never depends on the
// hit/miss mix, so two deployments with different cache states still sum
// identically.
func (t *TieredTable) AccumulateBag(acc []float32, indices []int32) {
	rows := t.cold.NumRows()
	// missBuf samples this bag's cold rows for the admission pass without
	// heap allocation; the all-hit steady state never touches it.
	var missBuf [missSample]int32
	missed := missBuf[:0]
	misses := 0

	hits := 0
	t.mu.RLock()
	ts := t.slots
	for _, ix := range indices {
		if ix < 0 || int(ix) >= rows {
			t.mu.RUnlock()
			panic(fmt.Sprintf("embedding: SLS index %d out of range [0,%d)", ix, rows))
		}
		if ts != nil {
			if s := uint32(ix) & ts.mask; ts.idx[s] == ix {
				hits++
				// Mark the resident referenced (store only when clear, so
				// the hot path stays read-mostly on the slot's cache line).
				if !ts.ref[s].Load() {
					ts.ref[s].Store(true)
				}
				for i, v := range ts.rows[int(s)*ts.dim : (int(s)+1)*ts.dim] {
					acc[i] += v
				}
				continue
			}
			misses++
			if len(missed) < missSample {
				missed = append(missed, ix)
			}
		}
		// Cold rows use the backend's fused accumulate — the same code the
		// uncached path runs. It rounds the decoded value to float32
		// before the add exactly as DecodeRow does, so hit and miss terms
		// stay bitwise identical (pinned by TestTieredHitMissBitIdentity).
		t.cold.AccumulateRow(acc, int(ix))
	}
	t.mu.RUnlock()
	if hits > 0 {
		t.hits.Add(int64(hits))
	}
	if ts == nil || misses == 0 {
		return
	}
	t.misses.Add(int64(misses))

	// Admission pass: one exclusive lock for the bag's misses. A row is
	// admitted once its sketch frequency reaches the threshold and at
	// least ties the resident it would displace (so two hot rows
	// colliding in the direct map cannot thrash each other on every
	// alternation). Admitted rows are decoded again into the slot's
	// backing — rare after warmup; the steady state pays only the sketch
	// updates.
	t.mu.Lock()
	if t.slots != ts {
		// Resized or invalidated underneath us; skip this bag's admissions.
		t.mu.Unlock()
		return
	}
	admitted := 0
	for _, ix := range missed {
		f := t.touchLocked(ix, len(ts.idx))
		if f < admitAfter || admitted >= maxAdmitPerBag {
			continue
		}
		s := uint32(ix) & ts.mask
		cur := ts.idx[s]
		if cur == ix {
			continue // lost a concurrent-miss race; the winner's copy serves
		}
		if cur >= 0 {
			if ts.ref[s].Load() {
				// The resident was hit since the last challenge: it keeps
				// the slot and loses its protection — a second-chance
				// policy on observed hits, which the miss-fed sketch
				// cannot see (popular residents stop missing).
				ts.ref[s].Store(false)
				continue
			}
			if t.freq[t.sketchSlot(cur)] >= f {
				// The unreferenced resident still at least ties on sketch
				// frequency: keep it. The tie goes to the resident
				// deliberately — two equally hot rows colliding in the
				// direct map would otherwise alternate on every miss, and
				// each alternation is an exclusive-lock decode.
				continue
			}
		}
		if cur == -1 {
			ts.cached++
		}
		ts.idx[s] = ix
		t.decoder.DecodeRow(ts.rows[int(s)*ts.dim:(int(s)+1)*ts.dim], int(ix))
		t.admits.Add(1)
		admitted++
	}
	t.mu.Unlock()
}

// TieredStats is a snapshot of one tiered table's cache behavior.
type TieredStats struct {
	Hits, Misses, Admits int64
	CachedRows, Capacity int
}

// Stats snapshots the counters.
func (t *TieredTable) Stats() TieredStats {
	return TieredStats{
		Hits: t.hits.Load(), Misses: t.misses.Load(), Admits: t.admits.Load(),
		CachedRows: t.CachedRows(), Capacity: t.Capacity(),
	}
}

// HitRate returns the cumulative cache hit rate (0 when unused).
func (s TieredStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}
