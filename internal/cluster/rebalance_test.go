package cluster_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// bootRebalanceable boots a 4-shard load-balanced deployment of the
// small model with its replayer client.
func bootRebalanceable(t *testing.T) (*cluster.Cluster, *serve.Replayer, model.Config) {
	t.Helper()
	cfg := smallModel()
	m := model.Build(cfg)
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50)
	plan, err := sharding.LoadBalanced(&cfg, 4, pooling)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cl, serve.NewReplayer(client), cfg
}

// TestClusterRebalanceLive drives traffic, rebalances against the
// measured load with a real skew, and checks (a) the plan actually
// changed, (b) scores match the pre-rebalance deployment bit for bit,
// and (c) requests racing the migration never fail.
func TestClusterRebalanceLive(t *testing.T) {
	cl, rep, cfg := bootRebalanceable(t)

	// Skew the stream onto shard 1's tables so the rebalancer has
	// something real to undo.
	skew := make(map[int]float64)
	for _, id := range cl.Plan.Shards[0].Tables {
		skew[id] = 6
	}
	gen := workload.NewGenerator(cfg, 23)
	reqs := workload.ApplySkew(gen.GenerateBatch(30), skew)

	warm := rep.RunSerial(reqs[:10])
	if warm.Failed() > 0 {
		t.Fatal(warm.Errors[0])
	}
	before, res := rep.RunSerialScored(reqs)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}

	// Rebalance while a replay is in flight: the stream must not observe
	// the cutover.
	var wg sync.WaitGroup
	wg.Add(1)
	var report *core.RebalanceReport
	var rbErr error
	go func() {
		defer wg.Done()
		report, rbErr = cl.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
	}()
	mid, res := rep.RunSerialScored(reqs)
	wg.Wait()
	if rbErr != nil {
		t.Fatal(rbErr)
	}
	if res.Failed() > 0 {
		t.Fatalf("requests racing the migration failed: %v", res.Errors[0])
	}
	if !report.Moved() {
		t.Fatalf("rebalance against a 6x skew moved nothing: %v", report)
	}
	if err := cl.Plan.Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	if samePlacement(report.Plan.Current, cl.Plan) {
		t.Fatal("cluster plan did not track the migration target")
	}

	// And afterwards, the same stream on the new placement.
	after, res := rep.RunSerialScored(reqs)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range before {
		requireSameScores(t, before[i], mid[i], "mid-migration", i)
		requireSameScores(t, before[i], after[i], "post-migration", i)
	}
}

// TestRebalanceReproducible: resharding plans on the lookups the main
// shard counted, so two deployments of one plan and seed that serve the
// same skewed stream plan the same pass — equal load summaries, equal
// moves — however long each lookup took to serve.
func TestRebalanceReproducible(t *testing.T) {
	var reports [2]*core.RebalanceReport
	for i := range reports {
		cl, rep, cfg := bootRebalanceable(t)
		skew := make(map[int]float64)
		for _, id := range cl.Plan.Shards[0].Tables {
			skew[id] = 6
		}
		reqs := workload.ApplySkew(workload.NewGenerator(cfg, 23).GenerateBatch(20), skew)
		if res := rep.RunSerial(reqs); res.Failed() > 0 {
			t.Fatal(res.Errors[0])
		}
		report, err := cl.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = report
	}
	if !reports[0].Moved() {
		t.Fatalf("rebalance against a 6x skew moved nothing: %v", reports[0])
	}
	if !reflect.DeepEqual(reports[0].Load, reports[1].Load) {
		t.Fatalf("load summaries differ:\n%v\n%v", reports[0].Load.Lookups, reports[1].Load.Lookups)
	}
	if !reflect.DeepEqual(reports[0].Plan.Moves, reports[1].Plan.Moves) {
		t.Fatalf("moves differ:\n%v\n%v", reports[0].Plan.Moves, reports[1].Plan.Moves)
	}
}

// TestClusterRebalanceBudgetZero pins the knob's off position end to
// end: a zero budget plans and moves nothing, and the plan is untouched.
func TestClusterRebalanceBudgetZero(t *testing.T) {
	cl, rep, cfg := bootRebalanceable(t)
	gen := workload.NewGenerator(cfg, 29)
	if res := rep.RunSerial(gen.GenerateBatch(10)); res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	planBefore := cl.Plan
	epochsBefore := make([]uint64, 0, len(cl.Shards()))
	for _, sh := range cl.Shards() {
		epochsBefore = append(epochsBefore, sh.Epoch())
	}
	report, err := cl.Rebalance(sharding.RebalanceOptions{MoveBudget: 0})
	if err != nil {
		t.Fatal(err)
	}
	if report.Moved() || report.BytesMoved != 0 {
		t.Fatalf("budget 0 moved something: %v", report)
	}
	if cl.Plan != planBefore {
		t.Fatal("budget 0 replaced the cluster plan")
	}
	for i, sh := range cl.Shards() {
		if sh.Epoch() != epochsBefore[i] {
			t.Fatalf("%s epoch advanced on a no-op rebalance", sh.ShardName)
		}
	}
}

// TestClusterRebalanceEpochsAdvance checks the cutover bumps epochs on
// both ends of every move.
func TestClusterRebalanceEpochsAdvance(t *testing.T) {
	cl, rep, cfg := bootRebalanceable(t)
	skew := make(map[int]float64)
	for _, id := range cl.Plan.Shards[0].Tables {
		skew[id] = 6
	}
	gen := workload.NewGenerator(cfg, 31)
	reqs := workload.ApplySkew(gen.GenerateBatch(20), skew)
	if res := rep.RunSerial(reqs); res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	epochsBefore := make([]uint64, 0, len(cl.Shards()))
	for _, sh := range cl.Shards() {
		epochsBefore = append(epochsBefore, sh.Epoch())
	}
	report, err := cl.Rebalance(sharding.RebalanceOptions{MoveBudget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Moved() {
		t.Fatal("no moves planned")
	}
	touched := make(map[int]bool)
	for _, mv := range report.Plan.Moves {
		touched[mv.From] = true
		touched[mv.To] = true
	}
	for i, sh := range cl.Shards() {
		if touched[i+1] && sh.Epoch() == epochsBefore[i] {
			t.Errorf("%s took part in a move but its epoch never advanced", sh.ShardName)
		}
	}
}

func samePlacement(a, b *sharding.Plan) bool {
	if a == b {
		return true
	}
	if len(a.Shards) != len(b.Shards) {
		return false
	}
	for i := range a.Shards {
		if len(a.Shards[i].Tables) != len(b.Shards[i].Tables) || len(a.Shards[i].Parts) != len(b.Shards[i].Parts) {
			return false
		}
		for j := range a.Shards[i].Tables {
			if a.Shards[i].Tables[j] != b.Shards[i].Tables[j] {
				return false
			}
		}
	}
	return true
}

func requireSameScores(t *testing.T, want, got []float32, phase string, req int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s request %d returned %d scores, want %d", phase, req, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s request %d score %d = %x, want %x (not byte-identical)",
				phase, req, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}
