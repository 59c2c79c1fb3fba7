// Distributed serving: boot a complete 8-shard load-balanced DRM1
// deployment on loopback TCP (with simulated data-center link latency),
// replay a request trace through the RPC front door, and print the
// cross-layer latency attribution the paper's tracing framework produces.
//
//	go run ./examples/distributed_serving
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	cfg := model.DRM1()
	m := model.Build(cfg)
	pooling := workload.DeploymentPooling(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 8, pooling)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("booting %s under %s: main shard + %d sparse shards...\n", cfg.Name, plan.Name(), plan.NumShards)
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 7, ClockSkew: true, SpanCapacity: 1 << 18})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("main shard on %s, sparse shards on %v\n", cl.MainAddr(), cl.SparseAddrs())

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
	cl.ResetTraces()

	const n = 40
	start := time.Now()
	res := rep.RunSerial(gen.GenerateBatch(n))
	if res.Failed() > 0 {
		log.Fatal(res.Errors[0])
	}
	fmt.Printf("replayed %d requests serially in %v\n", n, time.Since(start).Round(time.Millisecond))

	bs := trace.Analyze(cl.Collector.Gather(), "main")
	e2e := stats.NewSample(trace.ComponentSeconds(bs, trace.CompE2E))
	fmt.Printf("E2E latency: p50=%.2fms p90=%.2fms p99=%.2fms\n", e2e.P50()*1e3, e2e.P90()*1e3, e2e.P99()*1e3)

	// Median per-component attribution, the paper's Fig. 8 view.
	comp := func(c trace.Component) float64 {
		return stats.NewSample(trace.ComponentSeconds(bs, c)).P50() * 1e3
	}
	fmt.Println("\nmain-shard latency stack (P50, ms):")
	fmt.Printf("  dense operators        %7.3f\n", comp(trace.CompDenseOps))
	fmt.Printf("  embedded portion       %7.3f  <- time waiting on sparse shards\n", comp(trace.CompEmbedded))
	fmt.Printf("  rpc ser/de             %7.3f\n", comp(trace.CompMainSerDe))
	fmt.Printf("  rpc service            %7.3f\n", comp(trace.CompMainService))
	fmt.Printf("  net overhead           %7.3f\n", comp(trace.CompMainNetOverhead))

	fmt.Println("\nbounding sparse-shard stack (P50, ms):")
	fmt.Printf("  network latency        %7.3f  <- dominates, as the paper finds\n", comp(trace.CompBoundNetwork))
	fmt.Printf("  sparse operators       %7.3f\n", comp(trace.CompBoundSparseOps))
	fmt.Printf("  rpc ser/de             %7.3f\n", comp(trace.CompBoundSerDe))
	fmt.Printf("  rpc service            %7.3f\n", comp(trace.CompBoundService))

	var rpcs int
	for i := range bs {
		rpcs += bs[i].RPCCalls
	}
	fmt.Printf("\nRPC fan-out: %.1f calls per request across %d shards\n", float64(rpcs)/float64(len(bs)), plan.NumShards)
}
