// Autoshard: the paper's future-work loop closed end to end — profile a
// model, feed the measurements to the auto-sharding advisor, deploy its
// chosen plan, and verify the SLA it was asked to meet.
//
//	go run ./examples/autoshard
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

func main() {
	cfg := model.DRM1()
	m := model.Build(cfg)

	// 1. Profile: the advisor needs per-table pooling estimates (the
	// paper's sampled-request methodology).
	pooling := workload.DeploymentPooling(cfg)

	// 2. Advise under constraints: shards must fit an SC-Small-sized
	// memory budget, and compute overhead is weighted against latency.
	cons := sharding.Constraints{
		MaxShards:     8,
		MaxShardBytes: 64 << 20, // a scaled SC-Small's usable DRAM
		ComputeWeight: 2,
	}
	candidates, err := sharding.AutoShard(&cfg, pooling, sharding.DefaultCostModel(), cons)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("auto-sharding advisor ranking (top 6):")
	fmt.Print(sharding.RenderCandidates(candidates, 6))
	best := candidates[0]
	if !best.Feasible {
		log.Fatalf("no feasible plan: %s", best.Reason)
	}
	fmt.Printf("\nchosen: %s (est. +%v latency, +%v compute per request)\n\n",
		best.Plan.Name(), best.EstLatencyOverhead.Round(time.Microsecond),
		best.EstComputeOverhead.Round(time.Microsecond))

	// 3. Deploy the chosen plan and replay traffic.
	cl, err := cluster.Boot(m, best.Plan, cluster.Options{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.DialMain()
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	gen := workload.NewGenerator(cfg, 12345)
	rep := serve.NewReplayer(client)
	if res := rep.RunSerial(gen.GenerateBatch(5)); res.Failed() > 0 {
		log.Fatal(res.Errors[0])
	}
	res := rep.RunSerial(gen.GenerateBatch(40))
	if res.Failed() > 0 {
		log.Fatal(res.Errors[0])
	}

	// 4. Evaluate the serving SLA (Section II's contract).
	sla := serve.SLA{Budget: 40 * time.Millisecond, TargetQuantile: 0.99}
	fmt.Println(sla.Evaluate(res))
}
