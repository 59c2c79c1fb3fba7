package sharding

import "cmp"

// Load accounting for online resharding: the main shard counts, per
// placement unit, the lookups its sparse calls send (core.Engine.Load)
// and hands the rebalancer a LoadSummary — measured pooling work, the
// currency the offline load-balanced strategy plans in from priors.

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

// LoadSummary counts the lookups sent to each placement unit over one
// window. The zero value is not usable; call NewLoadSummary. Summaries
// are not goroutine-safe.
type LoadSummary struct {
	Lookups map[TableLoadKey]int64
}

// NewLoadSummary returns an empty summary.
func NewLoadSummary() *LoadSummary {
	return &LoadSummary{Lookups: make(map[TableLoadKey]int64)}
}

// Add counts n more lookups against k.
func (s *LoadSummary) Add(k TableLoadKey, n int64) { s.Lookups[k] += n }

// Weight scalarizes one unit's load for balancing: its lookups.
func (s *LoadSummary) Weight(k TableLoadKey) float64 { return float64(s.Lookups[k]) }
