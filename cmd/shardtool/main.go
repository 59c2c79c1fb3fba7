// Command shardtool partitions a model under a chosen sharding strategy
// and prints the resulting placement — the analogue of the paper's
// "custom partitioning tool [that] employs a user-supplied configuration
// to group embedding tables ... and then serialize the model" (Section
// III-C), reporting Table II-style per-shard attributes.
//
// Usage:
//
//	shardtool -model DRM1 -strategy load-bal -shards 8
//	shardtool -model DRM1 -all        # the full Table II sweep
//	shardtool -model DRM3 -strategy NSBP -shards 4 -v   # per-shard tables
//
// Freshness subcommands (persistent v2 shard files):
//
//	shardtool export-v2 -model DRM2 -strategy NSBP -shards 4 -dir out/ -cold-precision int8
//	shardtool delta-diff old.shard1 new.shard1
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

func main() {
	if dispatchSubcommand(os.Args[1:]) {
		return
	}
	var (
		modelName = flag.String("model", "DRM1", "model: DRM1, DRM2, DRM3")
		strategy  = flag.String("strategy", "load-bal", "strategy: singular, 1-shard, cap-bal, load-bal, NSBP")
		shards    = flag.Int("shards", 8, "sparse shard count")
		all       = flag.Bool("all", false, "emit the full configuration sweep")
		auto      = flag.Bool("auto", false, "rank configurations with the auto-sharding advisor")
		computeW  = flag.Float64("compute-weight", 1, "auto mode: weight of compute overhead vs latency")
		capBytes  = flag.Int64("max-shard-bytes", 0, "auto mode: per-shard memory capacity (0 = unlimited)")
		samples   = flag.Int("samples", 200, "requests sampled for pooling estimation")
		verbose   = flag.Bool("v", false, "list per-shard table assignments")
	)
	flag.Parse()

	valid := false
	for _, n := range model.Names() {
		if n == *modelName {
			valid = true
		}
	}
	if !valid {
		fatal(fmt.Errorf("unknown model %q (want one of %v)", *modelName, model.Names()))
	}
	cfg := model.ByName(*modelName)
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 991), *samples)

	if *auto {
		cs, err := sharding.AutoShard(&cfg, pooling, sharding.DefaultCostModel(), sharding.Constraints{
			MaxShards: *shards, ComputeWeight: *computeW, MaxShardBytes: *capBytes,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("auto-sharding advisor for %s (cost model: %+v)\n", cfg.Name, sharding.DefaultCostModel())
		fmt.Print(sharding.RenderCandidates(cs, 12))
		return
	}

	var plans []*sharding.Plan
	if *all {
		ps, err := sharding.AllConfigurations(&cfg, pooling, false)
		if err != nil {
			fatal(err)
		}
		plans = ps
	} else {
		p, err := sharding.ByStrategy(&cfg, *strategy, *shards, pooling)
		if err != nil {
			fatal(err)
		}
		plans = []*sharding.Plan{p}
	}

	fmt.Print(sharding.Report(&cfg, plans, pooling))
	for _, p := range plans {
		if !p.IsDistributed() {
			continue
		}
		st := sharding.Balance(&cfg, p, pooling)
		fmt.Printf("%-22s capacity spread %.2fx, pooling spread %.2fx\n", p.Name(), st.CapacitySpread, st.PoolingSpread)
		if *verbose {
			for i := range p.Shards {
				a := &p.Shards[i]
				fmt.Printf("  shard %d (nets %v): tables %v", a.Shard, sharding.ShardNets(&cfg, a), a.Tables)
				if len(a.Parts) > 0 {
					fmt.Printf(" parts %+v", a.Parts)
				}
				fmt.Println()
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shardtool:", err)
	os.Exit(1)
}
