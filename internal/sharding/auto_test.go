package sharding

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

func autoInputs(t *testing.T) (model.Config, map[int]float64) {
	t.Helper()
	cfg := model.DRM1()
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 991), 150)
	return cfg, pooling
}

func TestAutoShardRanksCandidates(t *testing.T) {
	cfg, pooling := autoInputs(t)
	cs, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{MaxShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) < 10 {
		t.Fatalf("only %d candidates", len(cs))
	}
	// Sorted by score among feasible.
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Feasible == cs[i].Feasible && cs[i-1].Score > cs[i].Score {
			t.Fatalf("candidates not sorted at %d", i)
		}
	}
	// Every candidate's plan must validate.
	for _, c := range cs {
		if err := c.Plan.Validate(&cfg); err != nil {
			t.Errorf("%s: %v", c.Plan.Name(), err)
		}
	}
	// With no compute weight, higher shard counts should win (less
	// bounding pooling): the best plan should not be 1-shard.
	if cs[0].Plan.NumShards == 1 {
		t.Errorf("latency-only objective picked 1-shard: %s", cs[0].Plan.Name())
	}
}

func TestAutoShardComputeWeightFavorsNSBP(t *testing.T) {
	cfg, pooling := autoInputs(t)
	// Heavy compute weight: the advisor should prefer plans issuing fewer
	// RPCs per request — NSBP's defining property.
	cs, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{MaxShards: 8, ComputeWeight: 50})
	if err != nil {
		t.Fatal(err)
	}
	best := cs[0]
	if best.Plan.Strategy != StrategyNSBP && best.Plan.NumShards > 2 {
		t.Errorf("compute-weighted objective picked %s (compute %v)", best.Plan.Name(), best.EstComputeOverhead)
	}
	// And the chosen plan's compute estimate must be at or below the same
	// shard count's load-balanced plan.
	for _, c := range cs {
		if c.Plan.Strategy == StrategyLoad && c.Plan.NumShards == best.Plan.NumShards {
			if best.EstComputeOverhead > c.EstComputeOverhead {
				t.Errorf("winner has higher compute than load-bal at same count")
			}
		}
	}
}

func TestAutoShardCapacityConstraint(t *testing.T) {
	cfg, pooling := autoInputs(t)
	// Cap below the 2-shard size: small shard counts become infeasible.
	total := cfg.SparseBytes()
	cs, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{
		MaxShards: 8, MaxShardBytes: total / 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.Plan.NumShards <= 2 && c.Feasible {
			t.Errorf("%s should be memory-infeasible", c.Plan.Name())
		}
		if !c.Feasible && c.Reason == "" {
			t.Errorf("%s infeasible without reason", c.Plan.Name())
		}
	}
	if !cs[0].Feasible {
		t.Error("best candidate should be feasible when any is")
	}
}

func TestAutoShardDRM3PrefersFewShards(t *testing.T) {
	cfg := model.DRM3()
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 991), 150)
	cs, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{MaxShards: 8, ComputeWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// DRM3's pooling is tiny and dominated by one table: extra shards buy
	// nothing, so the advisor should not pick a high shard count.
	if best := cs[0]; best.Plan.NumShards > 4 {
		t.Errorf("DRM3 advisor picked %s; extra shards buy nothing", best.Plan.Name())
	}
}

// TestAutoShardScoresDeterministic pins the advisor's float arithmetic
// to shard order: the per-net pooling sum must not vary with map
// iteration, so repeated runs over identical inputs score (and rank)
// identically.
func TestAutoShardScoresDeterministic(t *testing.T) {
	cfg, pooling := autoInputs(t)
	base, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{MaxShards: 6})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 8; run++ {
		cs, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{MaxShards: 6})
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != len(base) {
			t.Fatalf("run %d: %d candidates vs %d", run, len(cs), len(base))
		}
		for i := range cs {
			if cs[i].Plan.Name() != base[i].Plan.Name() || cs[i].Score != base[i].Score {
				t.Fatalf("run %d: candidate %d is %s score %v, first run had %s score %v",
					run, i, cs[i].Plan.Name(), cs[i].Score, base[i].Plan.Name(), base[i].Score)
			}
		}
	}
}

func TestRenderCandidates(t *testing.T) {
	cfg, pooling := autoInputs(t)
	cs, err := AutoShard(&cfg, pooling, DefaultCostModel(), Constraints{MaxShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderCandidates(cs, 3)
	if !strings.Contains(out, "est. +latency") || !strings.Contains(out, "shard") {
		t.Errorf("render missing columns:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 { // header + 3
		t.Errorf("limit not honored: %d lines", lines)
	}
}
