package sharding

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"
)

// Load accounting for online resharding: the sparse shard service folds
// every request's per-table row-access counts and service time into a
// LoadSummary — a cheap, mergeable aggregate (a handful of counters per
// table, not a trace) that travels over one RPC and feeds the rebalancer
// with *measured* load instead of the synthetic pooling priors the
// offline strategies budget with.

// TableLoadKey addresses one load-accounting bucket: a whole table
// (PartIndex 0 of 1) or one row-partition.
type TableLoadKey struct {
	TableID   int
	PartIndex int
}

// Compare orders keys by table, then part (-1, 0 or +1, as cmp.Compare):
// the one (table, part) order of every sorted walk over placement units.
func (k TableLoadKey) Compare(o TableLoadKey) int {
	if c := cmp.Compare(k.TableID, o.TableID); c != 0 {
		return c
	}
	return cmp.Compare(k.PartIndex, o.PartIndex)
}

// TableLoad is the mergeable per-table aggregate.
type TableLoad struct {
	// Lookups counts embedding row accesses pooled for this table.
	Lookups int64
	// ServiceTime is the sparse-op time attributed to this table
	// (apportioned by lookup share within each call).
	ServiceTime time.Duration
	// Calls counts sparse RPCs that carried an entry for this table.
	Calls int64
}

// add folds another aggregate in.
func (l *TableLoad) add(o TableLoad) {
	l.Lookups += o.Lookups
	l.ServiceTime += o.ServiceTime
	l.Calls += o.Calls
}

// LoadSummary aggregates measured load per table/partition. The zero
// value is not usable; call NewLoadSummary. Summaries are not
// goroutine-safe — owners serialize access (the sparse shard guards its
// live summary with a mutex and hands out snapshots).
type LoadSummary struct {
	Tables map[TableLoadKey]TableLoad
}

// NewLoadSummary returns an empty summary.
func NewLoadSummary() *LoadSummary {
	return &LoadSummary{Tables: make(map[TableLoadKey]TableLoad)}
}

// Add folds one observation into the summary.
func (s *LoadSummary) Add(k TableLoadKey, l TableLoad) {
	cur := s.Tables[k]
	cur.add(l)
	s.Tables[k] = cur
}

// Merge folds another summary in (the cross-shard reduction).
func (s *LoadSummary) Merge(o *LoadSummary) {
	if o == nil {
		return
	}
	for k, l := range o.Tables {
		s.Add(k, l)
	}
}

// Clone returns an independent copy (the snapshot the shard hands out).
func (s *LoadSummary) Clone() *LoadSummary {
	out := NewLoadSummary()
	out.Merge(s)
	return out
}

// TotalLookups sums row accesses across all tables.
func (s *LoadSummary) TotalLookups() int64 {
	var n int64
	for _, l := range s.Tables {
		n += l.Lookups
	}
	return n
}

// Keys returns the summary's keys in deterministic (table, part) order.
func (s *LoadSummary) Keys() []TableLoadKey {
	return slices.SortedFunc(maps.Keys(s.Tables), TableLoadKey.Compare)
}

// Weight scalarizes one table's load for balancing: measured service
// seconds when available, otherwise lookup count (the two are
// proportional under a uniform per-lookup cost, so mixing summaries with
// and without timing stays sane within one rebalance pass).
func (s *LoadSummary) Weight(k TableLoadKey) float64 {
	l := s.Tables[k]
	if l.ServiceTime > 0 {
		return l.ServiceTime.Seconds()
	}
	return float64(l.Lookups)
}

// String renders the summary for logs, heaviest tables first.
func (s *LoadSummary) String() string {
	keys := s.Keys()
	sort.SliceStable(keys, func(i, j int) bool { return s.Weight(keys[i]) > s.Weight(keys[j]) })
	var b strings.Builder
	fmt.Fprintf(&b, "load summary: %d tables, %d lookups\n", len(keys), s.TotalLookups())
	for i, k := range keys {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more\n", len(keys)-i)
			break
		}
		l := s.Tables[k]
		fmt.Fprintf(&b, "  table %d/%d: %d lookups, %v service, %d calls\n",
			k.TableID, k.PartIndex, l.Lookups, l.ServiceTime.Round(time.Microsecond), l.Calls)
	}
	return b.String()
}
