package cluster_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// standalone is a deployment composed the way cmd/drmserve composes it:
// one ServeSparse per (shard, replica) "process", then StartMain over
// their addresses — no cluster.Boot anywhere.
type standalone struct {
	main   *cluster.Main
	sparse []*cluster.Sparse
	peers  map[string][]string
	client *rpc.Client
}

// composeStandalone serves shard s of plan from replicas[s-1] sparse
// roles (one each when replicas is nil), each role drawing from cfg what
// it serves.
func composeStandalone(t *testing.T, cfg model.Config, plan *sharding.Plan, replicas []int, opts cluster.Options) *standalone {
	t.Helper()
	d := &standalone{peers: make(map[string][]string)}
	for shard := 1; shard <= plan.NumShards; shard++ {
		n := 1
		if replicas != nil {
			n = replicas[shard-1]
		}
		for r := 0; r < n; r++ {
			s, err := cluster.ServeSparse(cfg, plan, shard, "127.0.0.1:0", nil, opts)
			if err != nil {
				d.close()
				t.Fatal(err)
			}
			d.sparse = append(d.sparse, s)
			name := core.ServiceName(shard)
			d.peers[name] = append(d.peers[name], s.Server.Addr())
		}
	}
	var err error
	if d.main, err = cluster.StartMain(cfg, plan, "127.0.0.1:0", d.peers, nil, opts); err != nil {
		d.close()
		t.Fatal(err)
	}
	if d.client, err = rpc.Dial(d.main.Server.Addr(), nil); err != nil {
		d.close()
		t.Fatal(err)
	}
	return d
}

func (d *standalone) close() {
	if d.client != nil {
		d.client.Close()
	}
	if d.main != nil {
		d.main.Close()
	}
	for _, s := range d.sparse {
		s.Close()
	}
}

// scoresOf replays reqs serially against client and returns the scores.
func scoresOf(t *testing.T, client *rpc.Client, reqs []*workload.Request) [][]float32 {
	t.Helper()
	scores, res := serve.NewReplayer(client).RunSerialScored(reqs)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	return scores
}

// bootScores is the control: the same model, plan and options through
// cluster.Boot.
func bootScores(t *testing.T, m *model.Model, plan *sharding.Plan, opts cluster.Options, reqs []*workload.Request) [][]float32 {
	t.Helper()
	cl, err := cluster.Boot(m, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	return scoresOf(t, client, reqs)
}

// waitGoroutines fails unless the goroutine count settles back to (about)
// before: a closed role leaves no server, client or observer behind.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after close:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStandaloneRolesMatchBoot starts sparse roles and a main role over
// their addresses through the assemblers cmd/drmserve calls — each role
// drawing from the model's config only what it serves — and requires
// scores byte-identical to cluster.Boot of the full model, plan and seed,
// a clean close, and goroutines settled — for a plain deployment, one
// with a repeated peer name under hedging and health ejection, and one
// whose sparse roles boot from an exported shard-file directory under an
// fp16 cold tier behind hot-row caches.
func TestStandaloneRolesMatchBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.NSBP(&cfg, 4) // whole tables and row partitions
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGenerator(cfg, 77).GenerateBatch(12)
	tier := &core.TierConfig{
		CacheMB: 0.05,
		Plan:    uniformTiers(&cfg, sharding.PrecisionFP16),
	}
	dir := t.TempDir()
	exportShardDir(t, m, plan, tier.Plan, dir)

	cases := []struct {
		name     string
		replicas []int
		opts     cluster.Options
	}{
		{name: "plain", opts: cluster.Options{Seed: 5}},
		{name: "hedged", replicas: []int{2, 1, 1, 2},
			opts: cluster.Options{Seed: 5, HedgeDelay: 20 * time.Millisecond, HealthFails: 2}},
		{name: "shard-dir", opts: cluster.Options{Seed: 5, Tier: tier, ShardDir: dir}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			control := tc.opts
			if tc.replicas != nil {
				control.SparseReplicas = 2
			}
			want := bootScores(t, m, plan, control, reqs)

			before := runtime.NumGoroutine()
			d := composeStandalone(t, cfg, plan, tc.replicas, tc.opts)
			got := scoresOf(t, d.client, reqs)
			d.close()
			waitGoroutines(t, before)
			for i := range want {
				requireSameScores(t, want[i], got[i], "standalone "+tc.name, i)
			}
		})
	}
}

// TestStandaloneControlPlane runs one publish and one rebalance pass
// against standalone roles through the shared ControlPlane — what
// drmserve's control loop does each tick — and requires the scores to
// stay byte-identical to an undisturbed control.
func TestStandaloneControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 4, workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50))
	if err != nil {
		t.Fatal(err)
	}
	// Skew the stream onto shard 1's tables so the rebalancer has a real
	// imbalance to undo.
	skew := make(map[int]float64)
	for _, id := range plan.Shards[0].Tables {
		skew[id] = 6
	}
	reqs := workload.ApplySkew(workload.NewGenerator(cfg, 23).GenerateBatch(30), skew)
	want := bootScores(t, m, plan, cluster.Options{Seed: 11}, reqs)

	before := runtime.NumGoroutine()
	d := composeStandalone(t, cfg, plan, nil, cluster.Options{Seed: 11})
	stores := make([][]string, plan.NumShards)
	for i := range stores {
		stores[i] = d.peers[core.ServiceName(i+1)]
	}
	var cp cluster.ControlPlane
	mg, pub, err := cp.Drivers(d.main, stores)
	if err != nil {
		t.Fatal(err)
	}
	got := scoresOf(t, d.client, reqs) // also the load the migrator measures

	if _, err := pub.Publish(core.IdentityDelta(&cfg, nil, 1, 4)); err != nil {
		t.Fatal(err)
	}
	for _, s := range d.sparse {
		if v := s.Store.ModelVersion(); v != 1 {
			t.Errorf("%s at model version %d after the publish, want 1", s.Store.ShardName, v)
		}
	}
	report, err := mg.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Moved() {
		t.Fatalf("rebalance against a 6x skew moved nothing: %v", report)
	}
	after := scoresOf(t, d.client, reqs)

	cp.Close()
	d.close()
	waitGoroutines(t, before)
	for i := range want {
		requireSameScores(t, want[i], got[i], "standalone", i)
		requireSameScores(t, want[i], after[i], "after publish + rebalance", i)
	}

	// An unbound shard is refused, not dialled.
	if _, _, err := cp.Drivers(d.main, [][]string{nil}); err == nil {
		t.Error("drivers over a shard with no address must error")
	}
}

// TestSparseRoleTiersOnlyItsShard pins the cold-tier cost of a sparse
// role: booting shard 1 of 4 under an int8 tier encodes that shard's
// tables only, so it allocates well under what tiering the whole plan
// does.
func TestSparseRoleTiersOnlyItsShard(t *testing.T) {
	cfg := smallModel()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 4096
	}
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tier := &core.TierConfig{Plan: sharding.PlanTiers(&cfg, sharding.TierOptions{ColdPrecision: sharding.PrecisionInt8})}
	allocated := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}

	all := allocated(func() {
		recs := make([]*trace.Recorder, plan.NumShards)
		for i := range recs {
			recs[i] = trace.NewRecorder(fmt.Sprint(i), 1)
		}
		shards, err := core.MaterializeShardsTiered(m, plan, recs, tier)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shards {
			sh.Close()
		}
	})
	var role *cluster.Sparse
	one := allocated(func() {
		role, err = cluster.ServeSparse(cfg, plan, 1, "127.0.0.1:0", nil, cluster.Options{Tier: tier, SpanCapacity: 1})
		if err != nil {
			t.Fatal(err)
		}
	})
	defer role.Close()
	if ts := role.Store.TierSnapshot(); ts.Int8 == 0 {
		t.Fatalf("served shard is not tiered: %+v", ts)
	}
	t.Logf("one shard: %d bytes; all shards: %d bytes", one, all)
	if one > all/2 {
		t.Errorf("booting shard 1 of 4 allocated %d bytes; tiering all four allocates %d", one, all)
	}
}

// TestRoleRefusals: what a role cannot serve is refused at assembly, with
// nothing left running.
func TestRoleRefusals(t *testing.T) {
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	serve := func(plan *sharding.Plan, shard int, opts cluster.Options) error {
		s, err := cluster.ServeSparse(cfg, plan, shard, "127.0.0.1:0", nil, opts)
		if err == nil {
			s.Close()
		}
		return err
	}
	if err := serve(sharding.Singular(&cfg), 1, cluster.Options{}); err == nil {
		t.Error("a singular plan has no sparse role")
	}
	for _, shard := range []int{0, 3} {
		if err := serve(plan, shard, cluster.Options{}); err == nil {
			t.Errorf("shard %d of 2 served", shard)
		}
	}
	// A shard directory without the file, and one whose file holds
	// another shard.
	dir := t.TempDir()
	if err := serve(plan, 1, cluster.Options{ShardDir: dir}); err == nil {
		t.Error("a missing shard file served")
	}
	if err := core.WriteShardFile(core.ShardFilePath(dir, cfg.Name, 1), m, plan, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := serve(plan, 1, cluster.Options{ShardDir: dir}); err == nil || !strings.Contains(err.Error(), "holds shard 2") {
		t.Errorf("shard 2's file served as shard 1: %v", err)
	}

	// The main role: an unbound service, an unreachable peer, and health
	// ejection without the hedge timer it counts silence by.
	s, err := cluster.ServeSparse(cfg, plan, 1, "127.0.0.1:0", nil, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Server.Addr()
	start := func(peers map[string][]string, opts cluster.Options) error {
		mn, err := cluster.StartMain(cfg, plan, "127.0.0.1:0", peers, nil, opts)
		if err == nil {
			mn.Close()
		}
		return err
	}
	if err := start(map[string][]string{"sparse1": {addr}}, cluster.Options{}); err == nil || !strings.Contains(err.Error(), "sparse2") {
		t.Errorf("main role started without sparse2: %v", err)
	}
	both := map[string][]string{"sparse1": {addr}, "sparse2": {addr, addr}}
	if err := start(both, cluster.Options{HealthFails: 2}); err == nil {
		t.Error("HealthFails without HedgeDelay must be rejected")
	}
	s.Close()
	if err := start(both, cluster.Options{}); err == nil {
		t.Error("main role started over a dead peer")
	}
	waitGoroutines(t, before)
}

// TestScoresOutliveTheModel composes a deployment as drmserve does —
// every role draws a model of its own, a sparse role only the tables its
// shard serves, and keeps only the stores it serves from — then collects,
// so the mapped rows of every table or row-part source no role holds are
// unmapped. The next 50 scores must equal the 50 taken before, byte for
// byte.
func TestScoresOutliveTheModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	plan, err := sharding.NSBP(&cfg, 4) // whole tables and row partitions
	if err != nil {
		t.Fatal(err)
	}
	d := &standalone{peers: make(map[string][]string)}
	defer d.close()
	for shard := 1; shard <= plan.NumShards; shard++ {
		s, err := cluster.ServeSparse(cfg, plan, shard, "127.0.0.1:0", nil, cluster.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		d.sparse = append(d.sparse, s)
		d.peers[core.ServiceName(shard)] = []string{s.Server.Addr()}
	}
	if d.main, err = cluster.StartMain(cfg, plan, "127.0.0.1:0", d.peers, nil, cluster.Options{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if d.client, err = rpc.Dial(d.main.Server.Addr(), nil); err != nil {
		t.Fatal(err)
	}
	reqs := workload.NewGenerator(cfg, 31).GenerateBatch(50)
	want := scoresOf(t, d.client, reqs)

	// Finalizers run on one goroutine after the collection that found
	// their objects unreachable; a sentinel's shows the queue has run.
	ran := make(chan struct{})
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) { close(ran) })
	runtime.GC()
	runtime.GC()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("finalizers did not run after two collections")
	}

	got := scoresOf(t, d.client, reqs)
	for i := range want {
		requireSameScores(t, want[i], got[i], "after the models were collected", i)
	}
}
