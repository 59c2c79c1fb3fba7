package cluster_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallModel is a fast two-net config for integration tests: same
// structure as DRM1/DRM2 but tiny tables and cheap MLPs.
func smallModel() model.Config {
	cfg := model.DRM2()
	cfg.Name = "DRM2" // keep name for per-request table logic (none)
	// Shrink: keep table count but cut rows to a handful.
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 64 + i%7
		if cfg.Tables[i].PoolingFactor > 4 {
			cfg.Tables[i].PoolingFactor = 4
		}
	}
	cfg.MeanItems = 6
	cfg.DefaultBatch = 3
	return cfg
}

// uniformTiers plans every table of cfg at prec. The small test model's
// tables all sit below PlanTiers' 16 KiB floor, so tests that tier it
// build the plan directly.
func uniformTiers(cfg *model.Config, prec sharding.Precision) *sharding.TierPlan {
	tp := &sharding.TierPlan{Precisions: make(map[int]sharding.Precision, len(cfg.Tables))}
	for _, t := range cfg.Tables {
		tp.Precisions[t.ID] = prec
	}
	return tp
}

// execDirect runs requests through an engine without RPC (plan singular)
// and returns the scores, the ground truth for distributed equivalence.
func execDirect(t *testing.T, m *model.Model, reqs []*workload.Request) [][]float32 {
	t.Helper()
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := core.NewEngine(m, sharding.Singular(&m.Config), core.EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]float32
	for i, req := range reqs {
		scores, err := eng.Execute(trace.Context{TraceID: uint64(i + 1)}, core.FromWorkload(req))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scores)
	}
	return out
}

func plansUnderTest(t *testing.T, cfg *model.Config) []*sharding.Plan {
	t.Helper()
	pooling := workload.EstimatePooling(workload.NewGenerator(*cfg, 5), 50)
	plans := []*sharding.Plan{sharding.OneShard(cfg)}
	for _, n := range []int{2, 4} {
		lb, err := sharding.LoadBalanced(cfg, n, pooling)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := sharding.CapacityBalanced(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		nsbp, err := sharding.NSBP(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, lb, cb, nsbp)
	}
	return plans
}

// TestDistributedMatchesSingular is the system's central correctness
// property: for every sharding strategy, the distributed deployment must
// produce bit-identical scores to the non-distributed model (fp32 sums
// are reassociated only across table partitions, which sum in fixed part
// order through the collector — still deterministic, and within fp32
// tolerance of the singular result).
func TestDistributedMatchesSingular(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	reqs := workload.NewGenerator(cfg, 42).GenerateBatch(4)
	want := execDirect(t, m, reqs)

	for _, plan := range plansUnderTest(t, &cfg) {
		plan := plan
		t.Run(plan.Name(), func(t *testing.T) {
			cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 7, ClockSkew: true, SpanCapacity: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i, req := range reqs {
				got, err := cl.Engine.Execute(trace.Context{TraceID: uint64(100 + i)}, core.FromWorkload(req))
				if err != nil {
					t.Fatal(err)
				}
				for j := range got {
					if diff := math.Abs(float64(got[j] - want[i][j])); diff > 1e-5 {
						t.Fatalf("req %d item %d: distributed %v vs singular %v", i, j, got[j], want[i][j])
					}
				}
			}
		})
	}
}

func TestReplayerSerialOverRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 3, SpanCapacity: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reqs := workload.NewGenerator(cfg, 8).GenerateBatch(6)
	res := serve.NewReplayer(client).RunSerial(reqs)
	if res.Failed() != 0 {
		t.Fatalf("replay failures: %v", res.Errors)
	}
	if res.Sent != 6 || len(res.ClientE2E) != 6 {
		t.Fatalf("sent %d, e2e %d", res.Sent, len(res.ClientE2E))
	}

	// Trace pipeline: analyze and verify the distributed attribution.
	bs := trace.Analyze(cl.Collector.Gather(), "main")
	if len(bs) != 6 {
		t.Fatalf("analyzed %d requests, want 6", len(bs))
	}
	for _, b := range bs {
		if b.E2E <= 0 {
			t.Errorf("trace %d: non-positive E2E", b.TraceID)
		}
		if b.RPCCalls == 0 {
			t.Errorf("trace %d: no RPC calls recorded", b.TraceID)
		}
		if b.EmbeddedPortion <= 0 {
			t.Errorf("trace %d: no embedded portion", b.TraceID)
		}
		if b.BoundShard == "" {
			t.Errorf("trace %d: no bounding shard", b.TraceID)
		}
		// Injected network latency must dominate raw loopback time; with
		// a ~120µs base one-way link the bounding network share must be
		// visible (paper: network latency > operator latency).
		if b.BoundNetwork < 50*time.Microsecond {
			t.Errorf("trace %d: bounding network %v suspiciously small", b.TraceID, b.BoundNetwork)
		}
		if b.BoundNetwork <= b.BoundSparseOps {
			t.Logf("trace %d: network %v vs sparse ops %v (paper expects network to dominate)", b.TraceID, b.BoundNetwork, b.BoundSparseOps)
		}
	}
	if cl.Collector.TotalDrops() != 0 {
		t.Errorf("dropped %d spans", cl.Collector.TotalDrops())
	}
}

func TestReplayerOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	cl, err := cluster.Boot(m, sharding.Singular(&cfg), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reqs := workload.NewGenerator(cfg, 9).GenerateBatch(8)
	res := serve.NewReplayer(client).RunOpenLoop(reqs, 500)
	if res.Failed() != 0 {
		t.Fatalf("open-loop failures: %v", res.Errors)
	}
	if res.Sent != 8 {
		t.Fatalf("sent %d", res.Sent)
	}
}

func TestClusterShardFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Kill one sparse shard; requests must fail cleanly, not hang.
	cl.KillSparse(0)
	req := workload.NewGenerator(cfg, 10).Next()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Engine.Execute(trace.Context{TraceID: 999}, core.FromWorkload(req))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("execution should fail when a sparse shard is down")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("execution hung on dead shard")
	}
}

func TestBatchSizeOverride(t *testing.T) {
	cfg := smallModel()
	m := model.Build(cfg)
	cl, err := cluster.Boot(m, sharding.Singular(&cfg), cluster.Options{BatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Engine.BatchSize() != 1000 {
		t.Errorf("BatchSize = %d", cl.Engine.BatchSize())
	}
}

func TestServingAddresses(t *testing.T) {
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addrs := append(cl.SparseAddrs(), cl.MainAddr()) // main + 2 sparse
	seen := make(map[string]bool)
	for _, a := range addrs {
		if a == "" || seen[a] {
			t.Fatalf("addresses = %v", addrs)
		}
		seen[a] = true
	}
	if len(addrs) != 3 {
		t.Fatalf("addresses = %v", addrs)
	}
}

// TestFrontedClusterEndToEnd boots a distributed deployment with the
// SLA-aware frontend and hedged sparse replicas, drives concurrent
// open-loop traffic, and checks (a) scores match the singular ground
// truth, (b) requests actually coalesced into fewer engine batches.
func TestFrontedClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{
		Seed: 3,
		Frontend: &frontend.Config{
			BatchWait:        3 * time.Millisecond,
			MaxBatchRequests: 8,
		},
		SparseReplicas: 2,
		HedgeDelay:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if len(cl.Hedged) != plan.NumShards {
		t.Fatalf("hedged callers for %d services, want %d", len(cl.Hedged), plan.NumShards)
	}

	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 16
	reqs := workload.NewGenerator(cfg, 8).GenerateBatch(n)
	want := execDirect(t, m, reqs)

	res := serve.NewReplayer(client).RunOpenLoop(reqs, 2000)
	if res.Failed() != 0 {
		t.Fatalf("replay failures: %v", res.Errors)
	}
	if res.Sent != n || res.Fallbacks != 0 {
		t.Fatalf("result = %+v", res)
	}

	st := cl.Frontend.Stats()
	if st.Completed != n {
		t.Fatalf("frontend completed %d of %d", st.Completed, n)
	}
	if st.Batches >= n {
		t.Errorf("%d engine batches for %d concurrent requests: no coalescing", st.Batches, n)
	}

	// Scores through the hedged distributed engine must equal the
	// singular ground truth.
	for i, req := range reqs {
		got, err := cl.Engine.Execute(trace.Context{TraceID: uint64(500 + i)}, core.FromWorkload(req))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Abs(float64(got[j]-want[i][j])) > 1e-5 {
				t.Fatalf("request %d item %d: %v != %v", i, j, got[j], want[i][j])
			}
		}
	}
}
