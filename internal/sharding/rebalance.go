package sharding

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/model"
)

// Online resharding, planning side: given the plan currently serving and
// the lookups counted per unit (LoadSummary), compute the *incremental* migration — the
// smallest set of table moves, bounded by a move budget, that walks the
// current placement toward load balance. The paper computes plans
// offline from priors; in production the hot-row distribution drifts, so
// a static plan degrades exactly the P99 tail the serving frontend
// protects. The rebalancer never rebuilds the plan from scratch: row
// moves cost bandwidth and cutover care, so it emits the few moves that
// pay for themselves.

// Move relocates one placement unit (a whole table, or one
// row-partition) from one shard to another.
type Move struct {
	PartRef
	// From and To are 1-based shard numbers.
	From, To int
	// Weight is the load the move relocates, in lookups
	// (LoadSummary.Weight).
	Weight float64
}

// String renders one move for logs.
func (m Move) String() string {
	unit := fmt.Sprintf("table %d", m.TableID)
	if m.NumParts > 1 {
		unit = fmt.Sprintf("table %d part %d/%d", m.TableID, m.PartIndex, m.NumParts)
	}
	return fmt.Sprintf("%s: shard %d -> shard %d (load %.3g)", unit, m.From, m.To, m.Weight)
}

// MigrationPlan is the rebalancer's output: the ordered moves plus the
// target plan that results from applying them to Current.
type MigrationPlan struct {
	Current *Plan
	Target  *Plan
	Moves   []Move
	// MaxLoadBefore/MaxLoadAfter are the bounding shard's load before and
	// after the moves (Weight units), the quantity the migration buys down.
	MaxLoadBefore, MaxLoadAfter float64
}

// RebalanceOptions bound the migration.
type RebalanceOptions struct {
	// MoveBudget caps how many placement units may move. 0 means move
	// nothing: the plan is always a no-op (the knob's off position, not a
	// default — callers wanting "unbounded" pass a large budget).
	MoveBudget int
}

// minGain is the minimum relative reduction of the bounding shard's load
// a single move must deliver to be worth its bandwidth. Guards against
// churn on an already-balanced plan.
const minGain = 0.01

// Rebalance plans an incremental migration from cur toward load balance
// under the counted summary. It is deterministic for a fixed (cfg, cur,
// load, opts): all iteration is in sorted unit order. Plans without at
// least two shards have nowhere to move load and yield an empty plan.
func Rebalance(cfg *model.Config, cur *Plan, load *LoadSummary, opts RebalanceOptions) (*MigrationPlan, error) {
	if err := cur.Validate(cfg); err != nil {
		return nil, fmt.Errorf("sharding: rebalance of invalid plan: %w", err)
	}
	mp := &MigrationPlan{Current: cur, Target: cur}
	if cur.NumShards < 2 || load == nil {
		return mp, nil
	}

	// Working state: per-shard unit lists and loads.
	type unit struct {
		PartRef
		weight float64
	}
	units := make([][]unit, cur.NumShards) // 0-based shard index
	loads := make([]float64, cur.NumShards)
	for i := range cur.Shards {
		for pr := range cur.Shards[i].Units() {
			u := unit{PartRef: pr, weight: load.Weight(pr.Key())}
			units[i] = append(units[i], u)
			loads[i] += u.weight
		}
		slices.SortFunc(units[i], func(a, b unit) int { return a.Key().Compare(b.Key()) })
	}
	argMax := func() int {
		best := 0
		for s := 1; s < len(loads); s++ {
			if loads[s] > loads[best] {
				best = s
			}
		}
		return best
	}
	argMin := func() int {
		best := 0
		for s := 1; s < len(loads); s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		return best
	}

	mp.MaxLoadBefore = loads[argMax()]
	for len(mp.Moves) < opts.MoveBudget {
		hi, lo := argMax(), argMin()
		if hi == lo || len(units[hi]) < 2 {
			break // nothing to move, or the move would empty the shard
		}
		gap := loads[hi] - loads[lo]
		// The ideal move halves the gap; pick the unit closest to gap/2
		// among those that strictly reduce the pair's bounding load
		// (weight < gap). First-in-sorted-order wins ties, so the choice
		// is deterministic.
		best := -1
		for ui, u := range units[hi] {
			if u.weight <= 0 || u.weight >= gap {
				continue
			}
			if best < 0 || abs(u.weight-gap/2) < abs(units[hi][best].weight-gap/2) {
				best = ui
			}
		}
		if best < 0 {
			break
		}
		w := units[hi][best].weight
		// New bounding load of the pair after the move.
		newHi := loads[hi] - w
		if after := loads[lo] + w; after > newHi {
			newHi = after
		}
		if newHi >= loads[hi]*(1-minGain) {
			break // the move doesn't buy enough to be worth the bytes
		}
		u := units[hi][best]
		mp.Moves = append(mp.Moves, Move{PartRef: u.PartRef, From: hi + 1, To: lo + 1, Weight: w})
		units[hi] = append(units[hi][:best:best], units[hi][best+1:]...)
		units[lo] = append(units[lo], u)
		loads[hi] -= w
		loads[lo] += w
	}
	mp.MaxLoadAfter = loads[argMax()]

	if len(mp.Moves) > 0 {
		target, err := ApplyMoves(cfg, cur, mp.Moves)
		if err != nil {
			return nil, err
		}
		mp.Target = target
	}
	return mp, nil
}

// ApplyMoves materializes the target plan a move list produces. A moved
// NSBP plan is re-labeled load-balanced, because its no-net-mixing
// invariant may no longer hold; other strategies keep their label.
func ApplyMoves(cfg *model.Config, cur *Plan, moves []Move) (*Plan, error) {
	target := &Plan{
		ModelName: cur.ModelName,
		Strategy:  cur.Strategy,
		NumShards: cur.NumShards,
		Shards:    make([]Assignment, len(cur.Shards)),
	}
	if len(moves) > 0 && cur.Strategy == StrategyNSBP {
		target.Strategy = StrategyLoad
	}
	for i, a := range cur.Shards {
		target.Shards[i] = Assignment{
			Shard:  a.Shard,
			Tables: append([]int(nil), a.Tables...),
			Parts:  append([]PartRef(nil), a.Parts...),
		}
	}
	for _, mv := range moves {
		from, to := &target.Shards[mv.From-1], &target.Shards[mv.To-1]
		if mv.NumParts <= 1 {
			idx := slices.Index(from.Tables, mv.TableID)
			if idx < 0 {
				return nil, fmt.Errorf("sharding: move %v: table not on source shard", mv)
			}
			from.Tables = slices.Delete(from.Tables, idx, idx+1)
			to.Tables = append(to.Tables, mv.TableID)
		} else {
			idx := slices.IndexFunc(from.Parts, func(pr PartRef) bool { return pr.Key() == mv.Key() })
			if idx < 0 {
				return nil, fmt.Errorf("sharding: move %v: part not on source shard", mv)
			}
			to.Parts = append(to.Parts, from.Parts[idx])
			from.Parts = slices.Delete(from.Parts, idx, idx+1)
		}
	}
	// Keep membership order canonical so equal move sets yield byte-equal
	// plans regardless of move order.
	for i := range target.Shards {
		sort.Ints(target.Shards[i].Tables)
		slices.SortFunc(target.Shards[i].Parts, func(a, b PartRef) int { return a.Key().Compare(b.Key()) })
	}
	if err := target.Validate(cfg); err != nil {
		return nil, fmt.Errorf("sharding: migration target invalid: %w", err)
	}
	return target, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
