package cluster_test

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// tierFor enables the tiered store on the small test model: every table
// encoded to fp16 (the model's tables are far below the planner's default
// size floor, so the floor is lowered) behind a modest hot-row cache —
// the cold tier a shard caches; an int8 one it serves bare.
func tierFor(cfg *model.Config) *core.TierConfig {
	return &core.TierConfig{
		CacheMB: 0.5,
		Plan: sharding.PlanTiers(cfg, sharding.TierOptions{
			ColdPrecision: sharding.PrecisionFP16, MinTableBytes: 1,
		}),
	}
}

// bootTiered boots a 4-shard deployment with the tiered store enabled.
func bootTiered(t *testing.T, cfg model.Config, m *model.Model) (*cluster.Cluster, *serve.Replayer) {
	t.Helper()
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50)
	plan, err := sharding.LoadBalanced(&cfg, 4, pooling)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 11, Tier: tierFor(&cfg)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cl, serve.NewReplayer(client)
}

// TestTieredRebalanceChaosIdentity is the cluster-level chaos check for
// the tiered store's coherence contract: two identical fp16+cache
// deployments replay the same skewed scored stream from multiple
// concurrent clients while one of them runs a live Rebalance mid-replay
// — fp16 rows streaming between shards, caches dying with their
// table copies, budgets re-apportioning — and every request's scores
// must stay byte-identical to the undisturbed control. Run under -race
// in CI, it doubles as the data-race sweep over the cache's lock-free
// read path racing admissions, migration installs, and retiering.
func TestTieredRebalanceChaosIdentity(t *testing.T) {
	cfg := smallModel()
	m := model.Build(cfg)

	// Shared drifted stream: heat on shard 1's tables gives the
	// rebalancer real moves to make, row skew gives the caches real hits.
	newStream := func(cl *cluster.Cluster, n int) []*workload.Request {
		gen := workload.NewGenerator(cfg, 23)
		gen.EnableRowSkew(1.4)
		skew := make(map[int]float64)
		for _, id := range cl.Plan.Shards[0].Tables {
			skew[id] = 6
		}
		return workload.ApplySkew(gen.GenerateBatch(n), skew)
	}

	const n = 36
	const workers = 3

	// Control: replay the stream once, undisturbed, single-threaded.
	control, rep := bootTiered(t, cfg, m)
	stream := newStream(control, n)
	if warm := rep.RunSerial(stream[:8]); warm.Failed() > 0 {
		t.Fatal(warm.Errors[0])
	}
	want, res := rep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}

	// Chaos deployment: same stream sliced across concurrent clients,
	// racing a live rebalance.
	chaos, chaosRep := bootTiered(t, cfg, m)
	if warm := chaosRep.RunSerial(newStream(chaos, n)[:8]); warm.Failed() > 0 {
		t.Fatal(warm.Errors[0])
	}
	chaosStream := newStream(chaos, n)

	epochsBefore := make([]uint64, 0, len(chaos.Shards()))
	for _, sh := range chaos.Shards() {
		epochsBefore = append(epochsBefore, sh.Epoch())
	}

	got := make([][][]float32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := chaos.DialMain()
			if err != nil {
				errs[w] = err
				return
			}
			defer client.Close()
			rep := serve.NewReplayer(client)
			for i := w; i < len(chaosStream); i += workers {
				scores, _, err := rep.Send(chaosStream[i])
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], scores)
			}
		}(w)
	}
	var report *core.RebalanceReport
	var rbErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		report, rbErr = chaos.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
	}()
	wg.Wait()
	if rbErr != nil {
		t.Fatal(rbErr)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if !report.Moved() {
		t.Fatalf("rebalance against a 6x skew moved nothing: %v", report)
	}
	moved := false
	for i, sh := range chaos.Shards() {
		if sh.Epoch() != epochsBefore[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no shard epoch advanced across the migration")
	}

	// Byte-identity: every request's scores match the control's exactly,
	// whether it ran before, during, or after the cutover.
	for w := 0; w < workers; w++ {
		wi := 0
		for i := w; i < len(chaosStream); i += workers {
			requireSameScores(t, want[i], got[w][wi], "chaos", i)
			wi++
		}
	}

	// The tier stayed live through the migration: caches exist on both
	// deployments and the moved tables kept their fp16 encoding.
	var hits int64
	fp32Tables := 0
	for _, st := range chaos.TierStats() {
		hits += st.Hits
		fp32Tables += st.FP32
	}
	if hits == 0 {
		t.Fatal("chaos deployment served no cache hits")
	}
	if fp32Tables != 0 {
		t.Fatalf("%d tables lost their fp16 encoding across migration", fp32Tables)
	}

	// Sanity on the identity harness itself: control and chaos really ran
	// the same number of requests.
	if len(want) != len(chaosStream) {
		t.Fatalf("control scored %d requests, chaos %d", len(want), len(chaosStream))
	}
}
