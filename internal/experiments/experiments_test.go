package experiments

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// testRunner uses a tiny request budget: these tests validate the
// experiment plumbing end to end, not the statistics.
func testRunner() *Runner {
	return NewRunner(Params{Requests: 6, Warmup: 2, Seed: 5})
}

func TestFig1RendersGrowth(t *testing.T) {
	var buf bytes.Buffer
	if err := testRunner().Fig1(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. 1", "features", "embeddings", "10.0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig5RendersDistributions(t *testing.T) {
	var buf bytes.Buffer
	if err := testRunner().Fig5(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DRM1", "DRM2", "DRM3", "257 tables", "largest"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTable2RendersShardingSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := testRunner().Table2(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "load-bal 8 shards", "NSBP 2 shards", "capacity spread"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestMeasurePipelineSingularDRM3(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster")
	}
	r := testRunner()
	cfg := r.Model("DRM3").Config
	res, err := r.Run("DRM3", sharding.Singular(&cfg), runMode{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.breakdowns) != r.P.Requests {
		t.Fatalf("got %d breakdowns, want %d", len(res.breakdowns), r.P.Requests)
	}
	for _, b := range res.breakdowns {
		if b.E2E <= 0 || b.DenseOps <= 0 || b.EmbeddedPortion <= 0 {
			t.Errorf("degenerate breakdown: %+v", b)
		}
		if b.RPCCalls != 0 {
			t.Errorf("singular run recorded %d RPC calls", b.RPCCalls)
		}
	}
	if res.kindOpTime["Dense"] <= res.kindOpTime["Sparse"] {
		t.Errorf("dense op time (%v) should dominate sparse (%v)",
			res.kindOpTime["Dense"], res.kindOpTime["Sparse"])
	}
	// Memoization: the same run must come back cached.
	again, err := r.Run("DRM3", sharding.Singular(&cfg), runMode{})
	if err != nil {
		t.Fatal(err)
	}
	if &again.breakdowns[0] != &res.breakdowns[0] {
		t.Error("second Run should be memoized")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, e := range All() {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
}

// shared is one runner for the deterministic claims below, so models,
// plans and configuration runs are built once; sweeps runs the extension
// sweeps' cells with enough requests for a failure window to matter.
var (
	shared = testRunner()
	sweeps = NewRunner(Params{Requests: 24, Warmup: 2, Seed: 5})
)

// liveCluster skips tests that boot deployments under -short.
func liveCluster(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("boots live clusters")
	}
}

// calls returns each request's RPC call count, and their sum.
func calls(t *testing.T, res *runResult) ([]int, int) {
	t.Helper()
	var per []int
	total := 0
	for _, b := range res.breakdowns {
		per = append(per, b.RPCCalls)
		total += b.RPCCalls
	}
	return per, total
}

// TestRPCCallsPaperSchedule pins rpc/req — the quantity Fig. 6/7/16, 9 and
// 13/14 vary — for DRM1 across the ten Table II configurations under the
// paper's per-batch, per-net schedule, exactly, with the relations the
// paper's trends rest on.
func TestRPCCallsPaperSchedule(t *testing.T) {
	liveCluster(t)
	plans, err := shared.Plans("DRM1")
	if err != nil {
		t.Fatal(err)
	}
	// Seed 5's six requests span 2, 1, 4, 3, 2 and 3 batches; one shard
	// serves both nets, so it takes 2 calls a batch.
	oneShard := []int{4, 2, 8, 6, 4, 6}
	totals := map[string]int{}
	for _, p := range plans {
		res, err := shared.Run("DRM1", p, runMode{})
		if err != nil {
			t.Fatal(err)
		}
		per, total := calls(t, res)
		totals[p.Name()] = total
		k := p.NumShards
		switch {
		case !p.IsDistributed():
			if total != 0 {
				t.Errorf("singular recorded RPC calls %v", per)
			}
		case p.Strategy != sharding.StrategyNSBP:
			// Every shard holds tables of both nets: k x the 1-shard figure.
			for i := range per {
				if per[i] != k*oneShard[i] {
					t.Errorf("%s: request %d made %d calls, want %d x %d", p.Name(), i, per[i], k, oneShard[i])
				}
			}
		default:
			// NSBP: each shard serves one net, so half of that — less a
			// call wherever a batch reads no row of a shard's tables.
			if want := 30 * k / 2; total > want || float64(total) < 0.95*float64(want) {
				t.Errorf("%s: %d calls, want at most %d and within 5%% of it", p.Name(), total, want)
			}
		}
	}
	want := map[string]int{
		"singular": 0, "1 shard": 30,
		"load-bal 2 shards": 60, "cap-bal 2 shards": 60, "NSBP 2 shards": 30,
		"load-bal 4 shards": 120, "cap-bal 4 shards": 120, "NSBP 4 shards": 60,
		"load-bal 8 shards": 240, "cap-bal 8 shards": 240, "NSBP 8 shards": 119,
	}
	if !reflect.DeepEqual(totals, want) {
		t.Errorf("rpc calls over 6 requests = %v, want %v", totals, want)
	}
	// Fig. 9: NSBP issues the fewest calls at each shard count.
	for _, k := range []string{"2", "4", "8"} {
		if n := totals["NSBP "+k+" shards"]; n >= totals["load-bal "+k+" shards"] || n >= totals["cap-bal "+k+" shards"] {
			t.Errorf("NSBP %s shards issued %d calls, not the fewest: %v", k, n, totals)
		}
	}
	// Fig. 13/14: with the request in one batch, one call per net per shard.
	p := findPlan(plans, sharding.StrategyLoad, 2)
	single, err := shared.Run("DRM1", p, runMode{batchOverride: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if per, total := calls(t, single); total >= totals[p.Name()] || !reflect.DeepEqual(per, []int{4, 4, 4, 4, 4, 4}) {
		t.Errorf("[1batch] arm made %v calls, want 4 a request and fewer than the default arm's %d", per, totals[p.Name()])
	}
}

// TestDefaultScheduleCallsAndScores: under the engine's default schedule
// DRM1's rpc/req is the shard count for every strategy (1/2/2/2/4/4/4/8/8/8;
// DRM3's partitioned table is read on two of its eight shards), and the
// paper's schedule changes how often shards are called, never a score.
func TestDefaultScheduleCallsAndScores(t *testing.T) {
	liveCluster(t)
	for _, name := range model.Names() {
		m := shared.Model(name)
		plans, err := shared.Plans(name)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(m.Config, shared.P.Seed)
		reqs := gen.GenerateBatch(shared.P.Requests)
		var want [][]float32
		for _, p := range plans {
			if name != "DRM1" && p != plans[len(plans)-1] && p.IsDistributed() {
				continue // DRM1 walks Table II; the others their control and last plan
			}
			for _, paper := range []bool{false, true} {
				s, err := shared.deploy(m, p, cluster.Options{PaperSchedule: paper}, nil)
				if err != nil {
					t.Fatal(err)
				}
				pass, bs, err := s.replayTraced(reqs, 0)
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = pass.scores // the singular deployment, default schedule
				}
				if err := sameScores(want, pass.scores); err != nil {
					t.Errorf("%s %s paper=%v: %v", name, p.Name(), paper, err)
				}
				for i := range bs {
					if name == "DRM1" && !paper && bs[i].RPCCalls != p.NumShards {
						t.Errorf("%s %s: request %d made %d calls under the default schedule, want %d", name, p.Name(), i, bs[i].RPCCalls, p.NumShards)
					}
					if !p.IsDistributed() && bs[i].RPCCalls != 0 {
						t.Errorf("%s singular recorded %d RPC calls", name, bs[i].RPCCalls)
					}
				}
			}
		}
	}
}

// TestTable2Directions holds Table II's balance statistics to the paper's
// directions — load-balanced sharding spreads pooling evenly and capacity
// unevenly ("capacities vary up to 50%"), capacity-balanced the reverse
// ("pooling varies up to 4.7x") — with a band around its magnitudes.
func TestTable2Directions(t *testing.T) {
	cfg := model.ByName("DRM1")
	pooling := shared.Pooling("DRM1")
	plans, err := shared.Plans("DRM1")
	if err != nil {
		t.Fatal(err)
	}
	worst := map[string]float64{}
	for _, p := range plans {
		if p.NumShards < 2 || p.Strategy == sharding.StrategyNSBP {
			continue
		}
		st := sharding.Balance(&cfg, p, pooling)
		even, uneven := st.PoolingSpread, st.CapacitySpread
		if p.Strategy == sharding.StrategyCapacity {
			even, uneven = uneven, even
		}
		if even > 1.01 || uneven <= even {
			t.Errorf("%s: capacity spread %.2fx, pooling spread %.2fx — wrong direction", p.Name(), st.CapacitySpread, st.PoolingSpread)
		}
		worst[p.Strategy] = math.Max(worst[p.Strategy], uneven)
	}
	if w := worst[sharding.StrategyLoad]; w < 1.25 || w > 3 {
		t.Errorf("load-balanced capacity spread peaks at %.2fx, outside [1.25, 3] (paper: 1.5x)", w)
	}
	if w := worst[sharding.StrategyCapacity]; w < 2.5 || w > 7 {
		t.Errorf("capacity-balanced pooling spread peaks at %.2fx, outside [2.5, 7] (paper: 4.7x)", w)
	}
}

// TestHarnessDropsAreAnError: a replay over a recorder too small for its
// spans must fail the drop check, not attribute from partial traces.
func TestHarnessDropsAreAnError(t *testing.T) {
	liveCluster(t)
	m := shared.Model("DRM3")
	reqs := workload.NewGenerator(m.Config, 1).GenerateBatch(2)
	s, err := shared.deploy(m, sharding.Singular(&m.Config), cluster.Options{SpanCapacity: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.replayTraced(reqs, 0); err == nil || !strings.Contains(err.Error(), "spans dropped") {
		t.Errorf("replay over a 4-span recorder: err = %v, want the drops error", err)
	}
}

// TestCloseAfterFailedWarmup: a deploy whose warm-up fails tears down
// everything it started.
func TestCloseAfterFailedWarmup(t *testing.T) {
	liveCluster(t)
	m := shared.Model("DRM3")
	empty := []*workload.Request{{ID: 1}} // no items: the engine refuses it
	before := runtime.NumGoroutine()
	if _, err := shared.deploy(m, sharding.Singular(&m.Config), cluster.Options{}, empty); err == nil || !strings.Contains(err.Error(), "warmup") {
		t.Fatalf("deploy with an empty request as warm-up: err = %v, want a warmup failure", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the failed deploy, %d after", before, after)
	}
}

// logVerdicts reports a sweep's claims and fails only when there are none:
// SLA and ratio verdicts are timing, judged on a quiet host, not in tier-1.
func logVerdicts(t *testing.T, s sweep) {
	t.Helper()
	if len(s.claims()) == 0 {
		t.Error("sweep returned no verdicts")
	}
	for _, v := range s.claims() {
		t.Log(v)
	}
}

// flipControl corrupts one score bit of a memoized control until the test
// ends, and returns how sameScores names it.
func flipControl(t *testing.T, key string) string {
	t.Helper()
	ctl := sweeps.controls[key]
	if ctl == nil {
		t.Fatalf("no %q control was memoized", key)
	}
	flip := func() { ctl.scores[3][0] = math.Float32frombits(math.Float32bits(ctl.scores[3][0]) ^ 1) }
	flip()
	t.Cleanup(flip)
	return "request 3 item 0"
}

func TestReshardCells(t *testing.T) {
	liveCluster(t)
	// Budget 8 first: both cells boot the one shared plan, so had the
	// rebalance written to it, budget 0 would start from another placement.
	res, err := sweeps.measureReshard([]reshardCell{{3.5, 8}, {3.5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	logVerdicts(t, res)
	on, off := res.rows[0], res.rows[1]
	if off.moves != 0 || off.bytes != 0 || off.planAfter != off.planBefore {
		t.Errorf("budget 0 moved: %+v", off)
	}
	if on.moves < 1 || on.bytes <= 0 || on.planAfter >= on.planBefore {
		t.Errorf("budget 8: %d moves, %d bytes, planned imbalance %.3f -> %.3f; want moves and a lower figure", on.moves, on.bytes, on.planBefore, on.planAfter)
	}
	if off.planBefore != on.planBefore || off.planBefore < 2 {
		t.Errorf("drifted placement's planned imbalance: %.3f then %.3f, want equal (the plan is shared, never written) and above 2", on.planBefore, off.planBefore)
	}
}

// TestTieredGridSkipsCachedInt8: a shard serves an int8 tier uncached, so
// a cell with an int8 tier and a cache budget would boot int8 × 0 again.
func TestTieredGridSkipsCachedInt8(t *testing.T) {
	for _, c := range tieredGrid {
		if c.prec == sharding.PrecisionInt8 && c.cacheMB > 0 {
			t.Errorf("cell %+v repeats the uncached int8 cell", c)
		}
	}
}

func TestTieredCells(t *testing.T) {
	liveCluster(t)
	res, err := sweeps.measureTiered([]tieredCell{{0, sharding.PrecisionFP32, 0}, {0, sharding.PrecisionInt8, 0}})
	if err != nil {
		t.Fatal(err)
	}
	logVerdicts(t, res)
	if v := res.claims()[0]; !v.OK {
		t.Errorf("resident bytes are deterministic: %v", v)
	}
	if fp32, int8 := res.rows[0].resident, res.rows[1].resident; int8 >= fp32 {
		t.Errorf("int8 resident bytes %d, fp32 %d", int8, fp32)
	}
}

func TestFaultCell(t *testing.T) {
	liveCluster(t)
	cell := []faultCell{{replicas: 2, kills: 1, delayMult: 1, eject: true}}
	var rebuilt [2]int64
	for i := range rebuilt {
		res, err := sweeps.measureFault(cell) // identical to control, or an error
		if err != nil {
			t.Fatal(err)
		}
		logVerdicts(t, res)
		row := res.rows[0]
		if row.ejections != int64(row.kills) || row.ejectAfter <= 0 {
			t.Errorf("ejected %d replicas (after %v), killed %d", row.ejections, row.ejectAfter, row.kills)
		}
		rebuilt[i] = row.rebuildBytes
	}
	if rebuilt[0] <= 0 || rebuilt[0] != rebuilt[1] {
		t.Errorf("snapshot rebuilds streamed %d then %d bytes, want the same positive count", rebuilt[0], rebuilt[1])
	}
	where := flipControl(t, "fault x2")
	if _, err := sweeps.measureFault(cell); err == nil || !strings.Contains(err.Error(), where) {
		t.Errorf("against a corrupted control: err = %v, want a mismatch at %s", err, where)
	}
}

func TestFreshCell(t *testing.T) {
	liveCluster(t)
	cell := []freshCell{{5 * time.Millisecond, 100}}
	res, err := sweeps.measureFresh(cell) // mmap boot and post-publish scores identical, or an error
	if err != nil {
		t.Fatal(err)
	}
	logVerdicts(t, res)
	if row := res.rows[0]; row.versions < 1 || row.rowsPerPub != 256 {
		t.Errorf("publishing every 5ms: %d versions of %d rows", row.versions, row.rowsPerPub)
	}
	where := flipControl(t, "fresh")
	if _, err := sweeps.measureFresh(cell); err == nil || !strings.Contains(err.Error(), where) {
		t.Errorf("against a corrupted control: err = %v, want a mismatch at %s", err, where)
	}
}

func TestCoServeStaticDeployment(t *testing.T) {
	liveCluster(t)
	res, err := sweeps.measureCoServe(coserveGrid[:1]) // identical per tenant, or an error
	if err != nil {
		t.Fatal(err)
	}
	logVerdicts(t, res)
	if len(res.rows) != 4 {
		t.Fatalf("%d rows, want 2 phases x 2 tenants", len(res.rows))
	}
	for _, row := range res.rows {
		if row.served == 0 || row.rep.Total == 0 {
			t.Errorf("%+v: nothing served", row)
		}
	}
	where := flipControl(t, "coserve")
	if _, err := sweeps.measureCoServe(coserveGrid[:1]); err == nil || !strings.Contains(err.Error(), where) {
		t.Errorf("against a corrupted control: err = %v, want a mismatch at %s", err, where)
	}
}

func TestFrontCell(t *testing.T) {
	liveCluster(t)
	res, err := sweeps.measureFront([]frontCell{{2 * time.Millisecond, []float64{2}}})
	if err != nil {
		t.Fatal(err)
	}
	logVerdicts(t, res)
	if row := res.rows[0]; row.rep.Total != sweeps.P.Requests || row.offered != 2*res.capacity {
		t.Errorf("%+v: want every request accounted for at twice capacity", row)
	}
}

// TestPaperArtifactsRender regenerates every paper artifact through the
// harness — so each one passes the dropped-span check — and looks for its
// banner; what the figures show is asserted above, where it is exact.
func TestPaperArtifactsRender(t *testing.T) {
	liveCluster(t)
	for _, e := range All() {
		if e.ID == "front" {
			break // the extension sweeps have their own cell tests
		}
		var buf bytes.Buffer
		if err := e.Run(shared, &buf); err != nil {
			t.Errorf("%s: %v", e.ID, err)
		}
		if !strings.Contains(buf.String(), "====\n") {
			t.Errorf("%s rendered no banner:\n%s", e.ID, buf.String())
		}
	}
}
