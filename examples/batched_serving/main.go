// Batched serving: boot a distributed DRM1 deployment fronted by the
// SLA-aware scheduler — dynamic batching, admission control, and hedged
// sparse replicas — then push open-loop traffic past the deployment's
// capacity and watch it shed load into fallbacks instead of collapsing.
//
//	go run ./examples/batched_serving
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

func main() {
	cfg := model.DRM1()
	m := model.Build(cfg)
	pooling := workload.DeploymentPooling(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, pooling)
	if err != nil {
		log.Fatal(err)
	}

	sla := serve.SLA{Budget: time.Second, TargetQuantile: 0.95}
	fmt.Printf("booting %s under %s with the SLA frontend (budget %v, 2 hedged replicas per shard)...\n",
		cfg.Name, plan.Name(), sla.Budget)
	cl, err := cluster.Boot(m, plan, cluster.Options{
		Seed: 7,
		Frontend: &frontend.Config{
			BatchWait:        5 * time.Millisecond,
			MaxBatchRequests: 16,
			MaxQueue:         64,
			Budget:           sla.Budget,
		},
		SparseReplicas: 2,
		HedgeDelay:     150 * time.Millisecond,
	})
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

	// Measure serial capacity to express the sweep in multiples of it.
	const probe = 20
	start := time.Now()
	if res := rep.RunSerial(gen.GenerateBatch(probe)); res.Failed() > 0 {
		log.Fatal(res.Errors[0])
	}
	capacity := float64(probe) / time.Since(start).Seconds()
	fmt.Printf("serial capacity ≈ %.0f QPS\n\n", capacity)

	fmt.Printf("%-10s %-12s %-12s %-10s %s\n", "load", "offered", "throughput", "reqs/batch", "SLA report")
	prev := cl.Frontend.Stats()
	for _, mult := range []float64{0.5, 1.5, 3.0} {
		qps := capacity * mult
		n := 60
		reqs := gen.GenerateBatch(n)
		t0 := time.Now()
		res := rep.RunOpenLoop(reqs, qps)
		elapsed := time.Since(t0)
		if res.Failed() > 0 {
			log.Fatalf("hard failures under load: %v", res.Errors[0])
		}
		st := cl.Frontend.Stats()
		served := st.Completed - prev.Completed
		batches := st.Batches - prev.Batches
		perBatch := 0.0
		if batches > 0 {
			perBatch = float64(st.BatchedRequests-prev.BatchedRequests) / float64(batches)
		}
		prev = st
		fmt.Printf("%-10s %-12s %-12s %-10.2f %v\n",
			fmt.Sprintf("%.1fx", mult),
			fmt.Sprintf("%.0f QPS", qps),
			fmt.Sprintf("%.0f QPS", float64(served)/elapsed.Seconds()),
			perBatch, sla.Evaluate(res))
	}

	st := cl.Frontend.Stats()
	// Total arrivals: queued requests plus admission rejections (deadline
	// sheds were already admitted, so Submitted covers them).
	arrivals := st.Submitted + st.ShedQueueFull + st.ShedBudget
	fmt.Printf("\nfrontend totals: %d arrived, %d completed, %d shed (%d queue-full, %d budget, %d deadline), max %d reqs/batch\n",
		arrivals, st.Completed, st.Sheds(), st.ShedQueueFull, st.ShedBudget, st.ShedDeadline, st.MaxBatchRequests)
	for name, h := range cl.Hedged {
		fmt.Printf("hedging %s: %d hedges issued, %d beat the primary\n", name, h.Hedges(), h.Wins())
	}
}
