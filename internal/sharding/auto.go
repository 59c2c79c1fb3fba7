package sharding

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
)

// Auto-sharding — the workflow the paper's conclusion calls for: "Future
// work is needed to automate model sharding to target data-center
// resource efficiency and per-model SLA and QPS requirements." The
// advisor enumerates the candidate configurations (each strategy at each
// shard count that fits memory), scores each against a cost model
// calibrated from profiling data (the paper: "an automatic sharding
// methodology is feasible, but requires sufficient profiling data"), and
// returns the ranked plans.

// CostModel holds the profiling-derived constants the advisor scores
// plans with.
type CostModel struct {
	// RPCLatency is the expected outstanding time of one remote call
	// excluding pooling work (network + serde + service floor).
	RPCLatency time.Duration
	// PerLookup is the pooling cost of one embedding lookup.
	PerLookup time.Duration
	// RPCCompute is the CPU consumed per remote call across both ends
	// (issue serialization, service boilerplate, response handling).
	RPCCompute time.Duration
	// BatchesPerRequest is the mean parallel batches one request spawns
	// (each batch issues its own RPC ops, Section VI-F).
	BatchesPerRequest float64
}

// DefaultCostModel returns constants calibrated on this reproduction's
// measured traces (see DESIGN.md "Experiments"); replace with fresh profiling
// numbers when the serving substrate changes.
func DefaultCostModel() CostModel {
	return CostModel{
		RPCLatency:        900 * time.Microsecond,
		PerLookup:         60 * time.Nanosecond,
		RPCCompute:        45 * time.Microsecond,
		BatchesPerRequest: 2.3,
	}
}

// Constraints bound the feasible configurations.
type Constraints struct {
	// MaxShardBytes is the sparse-shard memory capacity; plans with any
	// shard above it are infeasible. Zero disables the check.
	MaxShardBytes int64
	// LatencyBudget is the additional E2E latency the SLA tolerates over
	// singular; plans estimated above it are infeasible. Zero disables.
	LatencyBudget time.Duration
	// MaxShards caps the sweep (default 8).
	MaxShards int
	// ComputeWeight trades estimated compute overhead against latency
	// overhead in the score: score = latency + ComputeWeight×compute
	// (both in seconds). Zero means latency-only.
	ComputeWeight float64
}

// Candidate is one scored configuration.
type Candidate struct {
	Plan *Plan
	// EstLatencyOverhead is the added E2E latency vs singular the cost
	// model predicts (sum over sequential nets of the bounding call).
	EstLatencyOverhead time.Duration
	// EstComputeOverhead is the added CPU per request.
	EstComputeOverhead time.Duration
	// Score is the scalarized objective (lower is better).
	Score float64
	// Feasible reports whether the candidate met all constraints.
	Feasible bool
	// Reason explains infeasibility.
	Reason string
}

// AutoShard enumerates and scores configurations for a model, returning
// candidates sorted best-first (feasible before infeasible, then by
// score). pooling maps table ID to estimated lookups per request.
func AutoShard(cfg *model.Config, pooling map[int]float64, cm CostModel, cons Constraints) ([]Candidate, error) {
	if cons.MaxShards <= 0 {
		cons.MaxShards = 8
	}
	if cm.BatchesPerRequest <= 0 {
		cm.BatchesPerRequest = 1
	}
	var out []Candidate
	for n := 1; n <= cons.MaxShards; n++ {
		for _, strategy := range []string{StrategyCapacity, StrategyLoad, StrategyNSBP} {
			plan, err := buildCandidate(cfg, strategy, n, pooling)
			if err != nil {
				continue // strategy infeasible at this count (e.g. NSBP with n < nets)
			}
			c := score(cfg, plan, pooling, cm, cons)
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sharding: no feasible candidates for %s", cfg.Name)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Feasible != out[j].Feasible {
			return out[i].Feasible
		}
		return out[i].Score < out[j].Score
	})
	return out, nil
}

// buildCandidate is ByStrategy under the sweep's feasibility rules: the
// 1-shard plan is the capacity strategy's n = 1 case only, and NSBP needs
// a shard per net.
func buildCandidate(cfg *model.Config, strategy string, n int, pooling map[int]float64) (*Plan, error) {
	switch {
	case strategy == StrategyCapacity && n == 1:
		strategy = StrategyOneShard
	case strategy == StrategyLoad && n == 1:
		return nil, fmt.Errorf("sharding: 1-shard covered by capacity strategy")
	case strategy == StrategyNSBP && n < len(cfg.Nets):
		return nil, fmt.Errorf("sharding: NSBP needs ≥ %d shards", len(cfg.Nets))
	}
	return ByStrategy(cfg, strategy, n, pooling)
}

// score estimates a plan's latency and compute overheads with the cost
// model:
//
//   - latency: for each net (sequential), the bounding shard's call is
//     RPCLatency + its pooling share × PerLookup; singular in-line pooling
//     is credited back.
//   - compute: RPCCompute × calls per request, where calls = batches ×
//     Σ_nets (shards holding that net's tables).
func score(cfg *model.Config, plan *Plan, pooling map[int]float64, cm CostModel, cons Constraints) Candidate {
	c := Candidate{Plan: plan, Feasible: true}
	var maxShardBytes int64
	totalCalls := 0.0
	var latency float64

	perNetShardPooling := make(map[string]map[int]float64)
	for i := range plan.Shards {
		a := &plan.Shards[i]
		if b := ShardCapacityBytes(cfg, a); b > maxShardBytes {
			maxShardBytes = b
		}
		for _, net := range ShardNets(cfg, a) {
			if perNetShardPooling[net] == nil {
				perNetShardPooling[net] = make(map[int]float64)
			}
			perNetShardPooling[net][a.Shard] += shardNetPooling(cfg, a, net, pooling)
		}
	}
	for _, ns := range cfg.Nets {
		shards := perNetShardPooling[ns.Name]
		if len(shards) == 0 {
			continue
		}
		totalCalls += float64(len(shards)) * cm.BatchesPerRequest
		// The bounding shard dominates the net's embedded wait; in-line
		// pooling of the same lookups is what singular would have paid.
		// Sum in shard order: candidate scores are compared against each
		// other, so the float accumulation must not vary with map order.
		ids := make([]int, 0, len(shards))
		for id := range shards {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var bounding, total float64
		for _, id := range ids {
			p := shards[id]
			total += p
			if p > bounding {
				bounding = p
			}
		}
		remote := cm.RPCLatency.Seconds() + bounding/cm.BatchesPerRequest*cm.PerLookup.Seconds()
		local := total / cm.BatchesPerRequest * cm.PerLookup.Seconds()
		if d := remote - local; d > 0 {
			latency += d
		}
	}
	c.EstLatencyOverhead = time.Duration(latency * float64(time.Second))
	c.EstComputeOverhead = time.Duration(totalCalls * cm.RPCCompute.Seconds() * float64(time.Second))
	c.Score = c.EstLatencyOverhead.Seconds() + cons.ComputeWeight*c.EstComputeOverhead.Seconds()

	if cons.MaxShardBytes > 0 && maxShardBytes > cons.MaxShardBytes {
		c.Feasible = false
		c.Reason = fmt.Sprintf("shard of %d bytes exceeds capacity %d", maxShardBytes, cons.MaxShardBytes)
	}
	if cons.LatencyBudget > 0 && c.EstLatencyOverhead > cons.LatencyBudget {
		c.Feasible = false
		if c.Reason != "" {
			c.Reason += "; "
		}
		c.Reason += fmt.Sprintf("estimated overhead %v exceeds budget %v", c.EstLatencyOverhead, cons.LatencyBudget)
	}
	return c
}

// shardNetPooling sums the shard's pooling attributable to one net.
func shardNetPooling(cfg *model.Config, a *Assignment, net string, pooling map[int]float64) float64 {
	var p float64
	for _, id := range a.Tables {
		if cfg.Tables[id].Net == net {
			p += pooling[id]
		}
	}
	for _, pr := range a.Parts {
		if cfg.Tables[pr.TableID].Net == net {
			p += pooling[pr.TableID] / float64(pr.NumParts)
		}
	}
	return p
}

// RenderCandidates prints the ranked candidates.
func RenderCandidates(cs []Candidate, limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %14s %10s %s\n", "plan", "est. +latency", "est. +compute", "score", "status")
	for i, c := range cs {
		if limit > 0 && i >= limit {
			break
		}
		status := "ok"
		if !c.Feasible {
			status = "infeasible: " + c.Reason
		}
		fmt.Fprintf(&b, "%-22s %14v %14v %10.5f %s\n",
			c.Plan.Name(), c.EstLatencyOverhead.Round(time.Microsecond),
			c.EstComputeOverhead.Round(time.Microsecond), c.Score, status)
	}
	return b.String()
}
