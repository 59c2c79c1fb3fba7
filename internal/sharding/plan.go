// Package sharding implements capacity-driven model sharding (paper
// Section III-B): the plan representation mapping embedding tables (or
// row-partitions of huge tables) to sparse shards, the three placement
// strategies evaluated in the paper — capacity-balanced, load-balanced,
// and net-specific bin-packing (NSBP) — and the plan validator enforcing
// the serving constraints (stateless shards, complete and non-overlapping
// table coverage).
package sharding

import (
	"fmt"
	"iter"
	"sort"

	"repro/internal/model"
)

// Strategy names, matching Table I.
const (
	StrategySingular = "singular"
	StrategyOneShard = "1-shard"
	StrategyCapacity = "cap-bal"
	StrategyLoad     = "load-bal"
	StrategyNSBP     = "NSBP"
)

// PartRef is the placement unit: the rows r of one table with
// r % NumParts == PartIndex (embedding.RowPart). A whole table is
// {TableID, 0, 1}.
type PartRef struct {
	TableID   int
	PartIndex int
	NumParts  int
}

// Key returns the unit's (table, part) key.
func (u PartRef) Key() TableLoadKey {
	return TableLoadKey{TableID: u.TableID, PartIndex: u.PartIndex}
}

// Assignment is the table placement of one sparse shard.
type Assignment struct {
	// Shard is the 1-based shard number (matching the paper's tables).
	Shard int
	// Tables lists IDs of whole tables placed here.
	Tables []int
	// Parts lists row-partitions of huge tables placed here.
	Parts []PartRef
}

// Units yields the assignment's placement units in plan order: each
// whole table as {id, 0, 1}, then the row-partitions.
func (a *Assignment) Units() iter.Seq[PartRef] {
	return func(yield func(PartRef) bool) {
		for _, id := range a.Tables {
			if !yield(PartRef{TableID: id, NumParts: 1}) {
				return
			}
		}
		for _, pr := range a.Parts {
			if !yield(pr) {
				return
			}
		}
	}
}

// Plan is a complete sharding configuration for one model.
type Plan struct {
	ModelName string
	Strategy  string
	// NumShards is the sparse shard count (0 for singular).
	NumShards int
	Shards    []Assignment
}

// Name renders the configuration label used across the paper's figures
// ("singular", "1 shard", "load-bal 4 shards", ...).
func (p *Plan) Name() string {
	switch p.Strategy {
	case StrategySingular:
		return "singular"
	case StrategyOneShard:
		return "1 shard"
	default:
		return fmt.Sprintf("%s %d shards", p.Strategy, p.NumShards)
	}
}

// IsDistributed reports whether the plan has sparse shards.
func (p *Plan) IsDistributed() bool { return p.NumShards > 0 }

// ShardCapacityBytes returns the fp32 capacity the assignment holds, with
// partitioned tables contributing proportionally.
func ShardCapacityBytes(cfg *model.Config, a *Assignment) int64 {
	var n int64
	for u := range a.Units() {
		n += cfg.Tables[u.TableID].Bytes() / int64(u.NumParts)
	}
	return n
}

// ShardTableCount counts tables (parts count as one table presence, as in
// Table II's "Embedding Tables" row).
func ShardTableCount(a *Assignment) int { return len(a.Tables) + len(a.Parts) }

// ShardPooling estimates the pooling work assigned to a shard given
// per-table pooling estimates (lookups per request), splitting partitioned
// tables' pooling evenly across parts.
func ShardPooling(a *Assignment, pooling map[int]float64) float64 {
	var p float64
	for u := range a.Units() {
		p += pooling[u.TableID] / float64(u.NumParts)
	}
	return p
}

// ShardNets returns the distinct nets whose tables the shard holds.
func ShardNets(cfg *model.Config, a *Assignment) []string {
	seen := make(map[string]bool)
	var out []string
	for u := range a.Units() {
		if net := cfg.Tables[u.TableID].Net; !seen[net] {
			seen[net] = true
			out = append(out, net)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the plan's serving invariants against the model config:
// every table covered exactly once (whole, or by a complete set of
// distinct parts), no empty shards, shard numbering dense and 1-based.
// NSBP plans additionally must not mix nets within a shard (the property
// Section III-B3 is built on). It does not require a table's parts to sit
// on distinct shards: Rebalance can move a part onto a sibling part's
// shard, which leaves scores unchanged because the main shard sums a
// table's parts in part order wherever they are served.
func (p *Plan) Validate(cfg *model.Config) error {
	if p.Strategy == StrategySingular {
		if len(p.Shards) != 0 || p.NumShards != 0 {
			return fmt.Errorf("sharding: singular plan must have no shards")
		}
		return nil
	}
	if len(p.Shards) != p.NumShards {
		return fmt.Errorf("sharding: plan has %d assignments for %d shards", len(p.Shards), p.NumShards)
	}
	whole := make(map[int]int)         // tableID → shard
	parts := make(map[int]map[int]int) // tableID → partIndex → shard
	partsN := make(map[int]int)        // tableID → NumParts
	for i, a := range p.Shards {
		if a.Shard != i+1 {
			return fmt.Errorf("sharding: shard %d numbered %d; want dense 1-based numbering", i, a.Shard)
		}
		if ShardTableCount(&a) == 0 {
			return fmt.Errorf("sharding: shard %d is empty", a.Shard)
		}
		for _, id := range a.Tables {
			if id < 0 || id >= len(cfg.Tables) {
				return fmt.Errorf("sharding: shard %d references unknown table %d", a.Shard, id)
			}
			if prev, dup := whole[id]; dup {
				return fmt.Errorf("sharding: table %d assigned to both shard %d and %d", id, prev, a.Shard)
			}
			whole[id] = a.Shard
		}
		for _, pr := range a.Parts {
			if pr.TableID < 0 || pr.TableID >= len(cfg.Tables) {
				return fmt.Errorf("sharding: shard %d references unknown table %d", a.Shard, pr.TableID)
			}
			if pr.NumParts < 2 || pr.PartIndex < 0 || pr.PartIndex >= pr.NumParts {
				return fmt.Errorf("sharding: bad part ref %+v on shard %d", pr, a.Shard)
			}
			if n, ok := partsN[pr.TableID]; ok && n != pr.NumParts {
				return fmt.Errorf("sharding: table %d has inconsistent part counts %d and %d", pr.TableID, n, pr.NumParts)
			}
			partsN[pr.TableID] = pr.NumParts
			if parts[pr.TableID] == nil {
				parts[pr.TableID] = make(map[int]int)
			}
			if prev, dup := parts[pr.TableID][pr.PartIndex]; dup {
				return fmt.Errorf("sharding: part %d of table %d on both shard %d and %d", pr.PartIndex, pr.TableID, prev, a.Shard)
			}
			parts[pr.TableID][pr.PartIndex] = a.Shard
		}
	}
	// Validate in table order so a plan with several defects reports the
	// same one every run instead of whichever the map yields first.
	partIDs := make([]int, 0, len(parts))
	for id := range parts {
		partIDs = append(partIDs, id)
	}
	sort.Ints(partIDs)
	for _, id := range partIDs {
		if _, alsoWhole := whole[id]; alsoWhole {
			return fmt.Errorf("sharding: table %d assigned both whole and partitioned", id)
		}
		if len(parts[id]) != partsN[id] {
			return fmt.Errorf("sharding: table %d has %d of %d parts placed", id, len(parts[id]), partsN[id])
		}
	}
	for id := range cfg.Tables {
		if _, ok := whole[id]; ok {
			continue
		}
		if _, ok := parts[id]; ok {
			continue
		}
		return fmt.Errorf("sharding: table %d not placed on any shard", id)
	}
	if p.Strategy == StrategyNSBP {
		for i := range p.Shards {
			if nets := ShardNets(cfg, &p.Shards[i]); len(nets) > 1 {
				return fmt.Errorf("sharding: NSBP shard %d mixes nets %v", p.Shards[i].Shard, nets)
			}
		}
	}
	return nil
}
