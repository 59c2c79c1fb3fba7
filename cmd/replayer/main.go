// Command replayer drives ranking requests at a main shard and reports
// client-observed latency quantiles — the production replayer of Section
// V-B, pointed at a drmserve deployment.
//
// Usage:
//
//	replayer -addr 127.0.0.1:7100 -model DRM1 -n 200                 # serial
//	replayer -addr 127.0.0.1:7100 -model DRM1 -n 500 -qps 150        # open loop
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7100", "main shard address")
		modelName = flag.String("model", "DRM1", "model the server is serving")
		n         = flag.Int("n", 100, "requests to send")
		warmup    = flag.Int("warmup", 5, "warmup requests (excluded from stats)")
		qps       = flag.Float64("qps", 0, "open-loop arrival rate; 0 = serial blocking")
		seed      = flag.Int64("seed", 12345, "workload seed (must match analysis runs)")
		diurnal   = flag.Bool("diurnal", false, "modulate request sizes diurnally")
		slaBudget = flag.Duration("sla", 0, "evaluate results against this latency budget")
		slaQ      = flag.Float64("sla-quantile", 0.99, "SLA target quantile")
	)
	flag.Parse()

	client, err := rpc.Dial(*addr, nil)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	cfg := model.ByName(*modelName)
	gen := workload.NewGenerator(cfg, *seed)
	if *diurnal {
		gen.EnableDiurnal()
	}
	rep := serve.NewReplayer(client)
	if *warmup > 0 {
		if res := rep.RunSerial(gen.GenerateBatch(*warmup)); res.Failed() > 0 {
			fatal(fmt.Errorf("warmup failed: %v", res.Errors[0]))
		}
	}
	reqs := gen.GenerateBatch(*n)
	var res *serve.Result
	if *qps > 0 {
		res = rep.RunOpenLoop(reqs, *qps)
	} else {
		res = rep.RunSerial(reqs)
	}

	fmt.Printf("sent %d requests, %d failed, %d shed to fallbacks\n", res.Sent, res.Failed(), res.Fallbacks)
	for _, err := range res.Errors {
		fmt.Println("  error:", err)
	}
	if len(res.ClientE2E) > 0 {
		s := stats.NewDurationSample(res.ClientE2E)
		fmt.Printf("client E2E: p50=%.3fms p90=%.3fms p99=%.3fms mean=%.3fms\n",
			s.P50()*1e3, s.P90()*1e3, s.P99()*1e3, s.Mean()*1e3)
	}
	if *slaBudget > 0 {
		fmt.Println(serve.SLA{Budget: *slaBudget, TargetQuantile: *slaQ}.Evaluate(res))
	}
	if res.Failed() > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replayer:", err)
	os.Exit(1)
}
