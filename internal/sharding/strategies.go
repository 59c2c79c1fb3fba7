package sharding

import (
	"fmt"
	"sort"

	"repro/internal/model"
)

// ByStrategy builds the n-shard plan the named strategy (a Strategy*
// constant, as the commands' -strategy flags spell it) gives cfg; the
// singular and 1-shard strategies ignore n, and only load-bal reads
// pooling. Every process of a deployment derives its plan here.
func ByStrategy(cfg *model.Config, name string, n int, pooling map[int]float64) (*Plan, error) {
	switch name {
	case StrategySingular:
		return Singular(cfg), nil
	case StrategyOneShard, "one-shard":
		return OneShard(cfg), nil
	case StrategyCapacity:
		return CapacityBalanced(cfg, n)
	case StrategyLoad:
		return LoadBalanced(cfg, n, pooling)
	case StrategyNSBP, "nsbp":
		return NSBP(cfg, n)
	}
	return nil, fmt.Errorf("sharding: unknown strategy %q", name)
}

// Singular returns the non-distributed configuration: the whole model on
// one server, no sparse shards (Table I's baseline).
func Singular(cfg *model.Config) *Plan {
	return &Plan{ModelName: cfg.Name, Strategy: StrategySingular}
}

// OneShard places every table on a single sparse shard — the paper's
// "impractical worst-case, where all embedding tables are placed on one
// shard and no work is parallelized".
func OneShard(cfg *model.Config) *Plan {
	a := Assignment{Shard: 1}
	for _, t := range cfg.Tables {
		a.Tables = append(a.Tables, t.ID)
	}
	return &Plan{ModelName: cfg.Name, Strategy: StrategyOneShard, NumShards: 1, Shards: []Assignment{a}}
}

// lptPack assigns whole tables to n shards greedily: tables sorted by
// descending weight, each placed on the currently lightest shard (the
// classic longest-processing-time heuristic). Ties break on shard index
// so plans are deterministic.
func lptPack(cfg *model.Config, n int, weight func(model.TableSpec) float64) []Assignment {
	type item struct {
		id int
		w  float64
	}
	items := make([]item, len(cfg.Tables))
	for i, t := range cfg.Tables {
		items[i] = item{id: t.ID, w: weight(t)}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].w != items[j].w {
			return items[i].w > items[j].w
		}
		return items[i].id < items[j].id
	})
	shards := make([]Assignment, n)
	load := make([]float64, n)
	for i := range shards {
		shards[i].Shard = i + 1
	}
	for _, it := range items {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		shards[best].Tables = append(shards[best].Tables, it.id)
		load[best] += it.w
	}
	// Zero-weight tables can leave shards empty (all ties resolve to shard
	// 0); empty shards are invalid, so steal from the most-populated one.
	for i := range shards {
		for len(shards[i].Tables) == 0 {
			donor := -1
			for j := range shards {
				if donor < 0 || len(shards[j].Tables) > len(shards[donor].Tables) {
					donor = j
				}
			}
			if len(shards[donor].Tables) < 2 {
				break // nothing to steal; Validate will reject
			}
			last := len(shards[donor].Tables) - 1
			shards[i].Tables = append(shards[i].Tables, shards[donor].Tables[last])
			shards[donor].Tables = shards[donor].Tables[:last]
		}
	}
	return shards
}

// CapacityBalanced spreads tables so every shard holds a similar number
// of bytes (Section III-B1), without splitting tables.
func CapacityBalanced(cfg *model.Config, n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("sharding: shard count %d < 1", n)
	}
	if n > len(cfg.Tables) {
		return nil, fmt.Errorf("sharding: %d shards exceed %d tables", n, len(cfg.Tables))
	}
	p := &Plan{
		ModelName: cfg.Name, Strategy: StrategyCapacity, NumShards: n,
		Shards: lptPack(cfg, n, func(t model.TableSpec) float64 { return float64(t.Bytes()) }),
	}
	return p, p.Validate(cfg)
}

// LoadBalanced spreads tables so every shard performs similar pooling
// work, using measured per-table pooling estimates (Section III-B2). A
// nil estimate map falls back to the config's specified pooling factors.
func LoadBalanced(cfg *model.Config, n int, pooling map[int]float64) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("sharding: shard count %d < 1", n)
	}
	if n > len(cfg.Tables) {
		return nil, fmt.Errorf("sharding: %d shards exceed %d tables", n, len(cfg.Tables))
	}
	weight := func(t model.TableSpec) float64 {
		if pooling != nil {
			return pooling[t.ID]
		}
		return t.PoolingFactor
	}
	p := &Plan{
		ModelName: cfg.Name, Strategy: StrategyLoad, NumShards: n,
		Shards: lptPack(cfg, n, weight),
	}
	return p, p.Validate(cfg)
}

// NSBP implements net-specific bin-packing (Section III-B3): tables are
// grouped by net and packed first-fit-decreasing into bins subject to a
// per-bin size limit; a table larger than the limit is row-partitioned
// into ⌈bytes/limit⌉ dedicated bins. The limit is binary-searched so the
// plan lands on exactly n shards where achievable.
func NSBP(cfg *model.Config, n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("sharding: shard count %d < 1", n)
	}
	nets := netNames(cfg)
	if n < len(nets) {
		return nil, fmt.Errorf("sharding: NSBP needs at least %d shards (one per net)", len(nets))
	}
	var total int64
	maxTable := int64(0)
	for _, t := range cfg.Tables {
		total += t.Bytes()
		if t.Bytes() > maxTable {
			maxTable = t.Bytes()
		}
	}
	// Binary search the smallest limit whose packing uses ≤ n bins. bins()
	// is non-increasing in the limit, so the search is well-founded.
	lo, hi := int64(1), total
	for lo < hi {
		mid := (lo + hi) / 2
		if nsbpBins(cfg, nets, mid) <= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	shards := nsbpPack(cfg, nets, lo)
	// The packing may land under n (bin counts jump in steps); split the
	// largest multi-table bins until the count is met.
	for len(shards) < n {
		if !splitLargestBin(cfg, &shards) {
			return nil, fmt.Errorf("sharding: NSBP cannot reach %d shards for %s", n, cfg.Name)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shardSortKey(cfg, shards[i]) < shardSortKey(cfg, shards[j]) })
	for i := range shards {
		shards[i].Shard = i + 1
	}
	p := &Plan{ModelName: cfg.Name, Strategy: StrategyNSBP, NumShards: n, Shards: shards}
	return p, p.Validate(cfg)
}

func netNames(cfg *model.Config) []string {
	var out []string
	for _, ns := range cfg.Nets {
		out = append(out, ns.Name)
	}
	return out
}

// nsbpBins counts the bins an FFD packing at the given limit needs.
func nsbpBins(cfg *model.Config, nets []string, limit int64) int {
	bins := 0
	for _, net := range nets {
		tables := cfg.NetTables(net)
		for _, t := range tables {
			if t.Bytes() > limit {
				bins += int((t.Bytes() + limit - 1) / limit)
			}
		}
		bins += ffdBinCount(tables, limit)
	}
	return bins
}

// ffdBinCount packs the net's tables with bytes ≤ limit first-fit-
// decreasing and returns the bin count.
func ffdBinCount(tables []model.TableSpec, limit int64) int {
	var sizes []int64
	for _, t := range tables {
		if t.Bytes() <= limit {
			sizes = append(sizes, t.Bytes())
		}
	}
	if len(sizes) == 0 {
		return 0
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	var bins []int64
	for _, s := range sizes {
		placed := false
		for b := range bins {
			if bins[b]+s <= limit {
				bins[b] += s
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, s)
		}
	}
	return len(bins)
}

// nsbpPack materializes the FFD packing at the limit into assignments.
func nsbpPack(cfg *model.Config, nets []string, limit int64) []Assignment {
	var shards []Assignment
	for _, net := range nets {
		tables := cfg.NetTables(net)
		// Oversized tables: dedicated partition shards.
		for _, t := range tables {
			if t.Bytes() > limit {
				k := int((t.Bytes() + limit - 1) / limit)
				for part := 0; part < k; part++ {
					shards = append(shards, Assignment{
						Parts: []PartRef{{TableID: t.ID, PartIndex: part, NumParts: k}},
					})
				}
			}
		}
		// Remaining tables: FFD into capacity-limited bins.
		var fit []model.TableSpec
		for _, t := range tables {
			if t.Bytes() <= limit {
				fit = append(fit, t)
			}
		}
		sort.Slice(fit, func(i, j int) bool {
			if fit[i].Bytes() != fit[j].Bytes() {
				return fit[i].Bytes() > fit[j].Bytes()
			}
			return fit[i].ID < fit[j].ID
		})
		var bins []Assignment
		var binLoad []int64
		for _, t := range fit {
			placed := false
			for b := range bins {
				if binLoad[b]+t.Bytes() <= limit {
					bins[b].Tables = append(bins[b].Tables, t.ID)
					binLoad[b] += t.Bytes()
					placed = true
					break
				}
			}
			if !placed {
				bins = append(bins, Assignment{Tables: []int{t.ID}})
				binLoad = append(binLoad, t.Bytes())
			}
		}
		shards = append(shards, bins...)
	}
	return shards
}

// splitLargestBin splits the multi-table bin with the most bytes into two
// halves (by running-byte split), returning false if no bin can split.
func splitLargestBin(cfg *model.Config, shards *[]Assignment) bool {
	best := -1
	var bestBytes int64
	for i := range *shards {
		a := &(*shards)[i]
		if len(a.Tables) < 2 {
			continue
		}
		b := ShardCapacityBytes(cfg, a)
		if b > bestBytes {
			bestBytes = b
			best = i
		}
	}
	if best < 0 {
		return false
	}
	src := (*shards)[best]
	sort.Slice(src.Tables, func(i, j int) bool {
		return cfg.Tables[src.Tables[i]].Bytes() > cfg.Tables[src.Tables[j]].Bytes()
	})
	var a, b Assignment
	var loadA, loadB int64
	for _, id := range src.Tables {
		if loadA <= loadB {
			a.Tables = append(a.Tables, id)
			loadA += cfg.Tables[id].Bytes()
		} else {
			b.Tables = append(b.Tables, id)
			loadB += cfg.Tables[id].Bytes()
		}
	}
	(*shards)[best] = a
	*shards = append(*shards, b)
	return true
}

// shardSortKey orders NSBP shards net-first, whole-table bins before
// partition bins, then by descending capacity — matching the paper's
// presentation (Table II's net1 shards first; DRM3's grouped small
// tables on shard 1 with the partitioned dominating table following).
func shardSortKey(cfg *model.Config, a Assignment) string {
	nets := ShardNets(cfg, &a)
	net := ""
	if len(nets) > 0 {
		net = nets[0]
	}
	kind := 0
	if len(a.Parts) > 0 {
		kind = 1
	}
	return fmt.Sprintf("%s-%d-%020d", net, kind, int64(1)<<62-ShardCapacityBytes(cfg, &a))
}

// AllConfigurations builds the paper's full configuration sweep for a
// model (Table I): singular, 1-shard, and {2,4,8} shards under each of
// the three strategies. Models with a single net skip strategies the
// paper couldn't apply (DRM3 is NSBP-only, Section V-A); use the
// includeAll flag to force every strategy regardless.
func AllConfigurations(cfg *model.Config, pooling map[int]float64, includeAll bool) ([]*Plan, error) {
	plans := []*Plan{Singular(cfg), OneShard(cfg)}
	nsbpOnly := cfg.Name == "DRM3" && !includeAll
	for _, n := range []int{2, 4, 8} {
		if !nsbpOnly {
			lb, err := LoadBalanced(cfg, n, pooling)
			if err != nil {
				return nil, err
			}
			plans = append(plans, lb)
			cb, err := CapacityBalanced(cfg, n)
			if err != nil {
				return nil, err
			}
			plans = append(plans, cb)
		}
		nsbp, err := NSBP(cfg, n)
		if err != nil {
			return nil, err
		}
		plans = append(plans, nsbp)
	}
	return plans, nil
}
