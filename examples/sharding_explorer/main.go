// Sharding explorer: partition each model under every strategy the paper
// evaluates and compare the placements — per-shard capacity, table
// counts, estimated pooling work, and balance spreads (Table II).
//
//	go run ./examples/sharding_explorer
package main

import (
	"fmt"
	"log"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

func main() {
	for _, name := range model.Names() {
		cfg := model.ByName(name)

		// Pooling factors are estimated the way the paper does: sample
		// requests and count lookups per table (Section III-B2).
		pooling := workload.DeploymentPooling(cfg)

		plans, err := sharding.AllConfigurations(&cfg, pooling, false)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(sharding.Report(&cfg, plans, pooling))

		for _, p := range plans {
			if !p.IsDistributed() || p.NumShards < 2 {
				continue
			}
			st := sharding.Balance(&cfg, p, pooling)
			fmt.Printf("  %-22s capacity spread %5.2fx   pooling spread %6.2fx\n",
				p.Name(), st.CapacitySpread, st.PoolingSpread)
		}

		// The paper's headline contrast: capacity-balanced placements can
		// be badly load-imbalanced, and NSBP trades balance for fewer RPCs.
		cb, err := sharding.CapacityBalanced(&cfg, 8)
		if err == nil {
			st := sharding.Balance(&cfg, cb, pooling)
			fmt.Printf("  -> %s cap-bal 8: shards hold equal bytes but pooling work varies %.1fx\n",
				name, st.PoolingSpread)
		}
		fmt.Println()
	}

	// DRM3's NSBP progression: the dominating table absorbs every extra
	// shard (Section V-A).
	cfg := model.DRM3()
	for _, n := range []int{2, 4, 8} {
		p, err := sharding.NSBP(&cfg, n)
		if err != nil {
			log.Fatal(err)
		}
		parts := 0
		for i := range p.Shards {
			parts += len(p.Shards[i].Parts)
		}
		fmt.Printf("DRM3 NSBP %d shards: dominating table in %d partitions, small tables grouped on %d shard(s)\n",
			n, parts, p.NumShards-parts)
	}
}
