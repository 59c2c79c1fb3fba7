package cluster_test

import (
	"math"
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sourceRows reads logical rows out of the model's fp32 tables — the
// publisher's delta payloads are always fp32, whatever the shards'
// cold-tier encoding.
func sourceRows(m *model.Model, id int, rows []int32) []float32 {
	tab := m.Tables[id]
	out := make([]float32, 0, len(rows)*tab.Dim())
	buf := make([]float32, tab.Dim())
	for _, r := range rows {
		for i := range buf {
			buf[i] = 0
		}
		tab.AccumulateRow(buf, int(r))
		out = append(out, buf...)
	}
	return out
}

// oneTablePerShard picks one table held by each shard of the plan.
func oneTablePerShard(plan *sharding.Plan) []int {
	var ids []int
	for si := range plan.Shards {
		a := &plan.Shards[si]
		if len(a.Tables) > 0 {
			ids = append(ids, a.Tables[0])
		} else if len(a.Parts) > 0 {
			ids = append(ids, a.Parts[0].TableID)
		}
	}
	return ids
}

// TestPublishIdentityBitIdentical publishes a delta whose values equal
// the rows already serving (touching one table on every shard of a
// tiered int8 deployment) and requires byte-identical scores across the
// version cutover: per-row quantization must re-encode the delta to the
// exact bytes the boot-time encode produced.
func TestPublishIdentityBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50)
	plan, err := sharding.LoadBalanced(&cfg, 4, pooling)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 11, Tier: tierFor(&cfg), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rep := serve.NewReplayer(client)

	stream := workload.NewGenerator(cfg, 23).GenerateBatch(12)
	want, res := rep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}

	const version = 3
	ds := &core.DeltaSet{Version: version}
	for _, id := range oneTablePerShard(cl.Plan) {
		rows := []int32{0, 1, int32(m.Tables[id].NumRows() - 1)}
		ds.Tables = append(ds.Tables, core.TableDelta{
			TableID: id, Rows: rows, Data: sourceRows(m, id, rows),
		})
	}
	report, err := cl.Publish(ds)
	if err != nil {
		t.Fatal(err)
	}
	if report.RowsSent == 0 || len(report.Events) == 0 {
		t.Fatalf("empty publish report: %v", report)
	}

	got, res := rep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range want {
		requireSameScores(t, want[i], got[i], "post-publish", i)
	}

	if v := cl.PublishedVersion(); v != version {
		t.Fatalf("published version %d, want %d", v, version)
	}
	for _, sh := range cl.Shards() {
		if v := sh.ModelVersion(); v != version {
			t.Fatalf("%s model version %d, want %d", sh.ShardName, v, version)
		}
	}
	events := cl.PublishTimeline()
	if len(events) != len(cl.Shards()) {
		t.Fatalf("%d timeline events, want one per shard (%d)", len(events), len(cl.Shards()))
	}
	for _, ev := range events {
		if ev.Version != version || ev.Epoch == 0 || ev.RowsSent == 0 {
			t.Fatalf("malformed event: %+v", ev)
		}
	}
	snap := reg.Snapshot()
	if lag := snap.Gauge("publish.lag"); lag != 0 {
		t.Fatalf("publish.lag = %d after full publish", lag)
	}
	if v := snap.Gauge("publish.version"); v != version {
		t.Fatalf("publish.version gauge = %d, want %d", v, version)
	}
	if v := snap.Gauge("publish.min_model_version"); v != version {
		t.Fatalf("publish.min_model_version = %d, want %d", v, version)
	}
}

// TestPublishMutationMatchesDirect publishes genuinely new values —
// fresh rows in every table plus a dense-weight swap — and requires the
// distributed deployment to score like a direct (no-RPC) engine over a
// model holding the same updated parameters.
func TestPublishMutationMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// The ground-truth model: an identical build whose tables and dense
	// weights are mutated in place exactly as the delta set prescribes.
	fresh := model.Build(cfg)
	ds := &core.DeltaSet{Version: 1}
	for id, tab := range fresh.Tables {
		dense := tab.(*embedding.Dense)
		rows := []int32{0, 3, int32(dense.NumRows() / 2)}
		data := make([]float32, 0, len(rows)*dense.Dim())
		for ri, r := range rows {
			for j := 0; j < dense.Dim(); j++ {
				v := float32(id)*0.125 + float32(ri)*0.03 - float32(j)*0.001
				dense.Data[int(r)*dense.Dim()+j] = v
				data = append(data, v)
			}
		}
		ds.Tables = append(ds.Tables, core.TableDelta{TableID: id, Rows: rows, Data: data})
	}
	fresh.NetParams[0].Proj.W.Data[0] += 0.5
	ds.Dense = fresh.NetParams

	report, err := cl.Publish(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !report.DenseSwapped {
		t.Fatal("dense swap did not happen")
	}

	reqs := workload.NewGenerator(cfg, 42).GenerateBatch(4)
	want := execDirect(t, fresh, reqs)
	for i, req := range reqs {
		got, err := cl.Engine.Execute(trace.Context{TraceID: uint64(500 + i)}, core.FromWorkload(req))
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if diff := math.Abs(float64(got[j] - want[i][j])); diff > 1e-5 {
				t.Fatalf("req %d item %d: distributed %v vs direct-on-fresh %v", i, j, got[j], want[i][j])
			}
		}
	}
}

// exportShardDir writes every shard's v2 file for the plan into dir.
func exportShardDir(t *testing.T, m *model.Model, plan *sharding.Plan, tier *sharding.TierPlan, dir string) {
	t.Helper()
	for s := 1; s <= plan.NumShards; s++ {
		if err := core.WriteShardFile(core.ShardFilePath(dir, m.Config.Name, s), m, plan, s, tier); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBootFromShardDirMatchesMaterialized boots one deployment from the
// in-memory model and another from exported v2 shard files (mmap-backed
// where the platform allows) and requires byte-identical scores — then
// publishes a delta into the file-backed deployment to prove updates
// stage on heap clones and never write through the mapping.
func TestBootFromShardDirMatchesMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.NSBP(&cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tier := tierFor(&cfg)
	dir := t.TempDir()
	exportShardDir(t, m, plan, tier.Plan, dir)

	boot := func(shardDir string) (*cluster.Cluster, *serve.Replayer) {
		cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 11, Tier: tier, ShardDir: shardDir})
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
	_, repMem := boot("")
	clFile, repFile := boot(dir)

	stream := workload.NewGenerator(cfg, 23).GenerateBatch(12)
	want, res := repMem.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	got, res := repFile.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range want {
		requireSameScores(t, want[i], got[i], "file-boot", i)
	}

	// Publish identity rows into the file-backed deployment: staging
	// clones to heap, so serving stays byte-identical and the mapped
	// file's bytes are untouched.
	before, err := os.ReadFile(core.ShardFilePath(dir, m.Config.Name, 1))
	if err != nil {
		t.Fatal(err)
	}
	ds := &core.DeltaSet{Version: 1}
	for _, id := range oneTablePerShard(clFile.Plan) {
		rows := []int32{0, 2}
		ds.Tables = append(ds.Tables, core.TableDelta{
			TableID: id, Rows: rows, Data: sourceRows(m, id, rows),
		})
	}
	if _, err := clFile.Publish(ds); err != nil {
		t.Fatal(err)
	}
	got, res = repFile.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range want {
		requireSameScores(t, want[i], got[i], "file-boot post-publish", i)
	}
	after, err := os.ReadFile(core.ShardFilePath(dir, m.Config.Name, 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("publish mutated the on-disk shard file")
	}
}
