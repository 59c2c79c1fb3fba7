package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// exchange is one sparse.run call as a recording caller saw it.
type exchange struct{ req, resp []byte }

// exchangeRecorder keeps every sparse.run body and its answer.
type exchangeRecorder struct {
	rpc.Caller
	mu   *sync.Mutex
	seen *[]exchange
}

func (c *exchangeRecorder) Go(req *rpc.Request) *rpc.Call {
	call := c.Caller.Go(req)
	<-call.Done // localCaller answers before it returns
	if call.Err == nil {
		c.mu.Lock()
		*c.seen = append(*c.seen, exchange{req: req.Body, resp: call.Resp.Body})
		c.mu.Unlock()
	}
	return call
}

// scatteredMatrices rebuilds, from recorded exchanges alone, the zeroed
// items × ΣDim matrix per net that the scatter used to fill: a whole
// table's packed rows copied to the columns of the items whose bag was
// not empty, a partitioned table's added there in ascending part order.
func scatteredMatrices(t *testing.T, nets []*netProgram, items int, seen []exchange) []*tensor.Matrix {
	t.Helper()
	out := make([]*tensor.Matrix, len(nets))
	for i, np := range nets {
		out[i] = tensor.New(items, np.embCols)
	}
	type contribution struct {
		part      int
		rows      []float32
		bags      []int // items with a row, in row order
		net, slot int
	}
	var parts []contribution
	for _, x := range seen {
		sreq, err := DecodeSparseRequest(x.req)
		if err != nil {
			t.Fatal(err)
		}
		sresp, err := DecodeSparseResponse(x.resp)
		if err != nil {
			t.Fatal(err)
		}
		for e, entry := range sreq.Entries {
			np := nets[entry.Net]
			slot := slices.IndexFunc(np.tables, func(nt netTable) bool { return nt.ID == int(entry.TableID) })
			c := contribution{part: int(entry.PartIndex), rows: sresp.Entries[e].Data, net: int(entry.Net), slot: slot}
			for item, bag := range entry.Bags {
				if len(bag.Indices) > 0 {
					c.bags = append(c.bags, item)
				}
			}
			parts = append(parts, c)
		}
	}
	slices.SortStableFunc(parts, func(a, b contribution) int { return a.part - b.part })
	for _, c := range parts {
		tab := nets[c.net].tables[c.slot]
		for k, item := range c.bags {
			dst := out[c.net].Row(item)[tab.colOff : tab.colOff+tab.Dim]
			for i, v := range c.rows[k*tab.Dim : (k+1)*tab.Dim] {
				dst[i] += v // onto +0: the copy, for a whole table's one part
			}
		}
	}
	return out
}

// TestBlockTableEqualsScatteredMatrix: for every model under a whole-table
// plan and a row-partitioned one, the block table a fetch resolves to
// stands, handle by handle, for the matrix the scatter used to build — a
// present block has the bits the copy (or the part-order sum) would have
// put in the item's columns, and a handle is 0 exactly where the item's
// bag had no lookup in any part, which is where the matrix kept its +0.
func TestBlockTableEqualsScatteredMatrix(t *testing.T) {
	for _, name := range []string{"DRM1", "DRM2", "DRM3"} {
		cfg := smallModel(name)
		m := model.Build(cfg)
		lb, err := sharding.LoadBalanced(&cfg, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		nsbp, err := sharding.NSBP(&cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(cfg, 13)
		for _, plan := range []*sharding.Plan{lb, nsbp} {
			t.Run(name+"/"+plan.Name(), func(t *testing.T) {
				var mu sync.Mutex
				var seen []exchange
				f := newShardedFixture(t, m, plan, EngineConfig{}, func(_ string, c rpc.Caller) rpc.Caller {
					return &exchangeRecorder{Caller: c, mu: &mu, seen: &seen}
				})
				partitioned := 0
				for n := 0; n < 4; n++ {
					req := FromWorkload(gen.Next())
					seen = seen[:0]
					ctx := trace.Context{TraceID: uint64(n + 1)}
					x := &execution{e: f.eng, prog: f.eng.prog.Load(), ctx: ctx, req: req, batch: f.eng.BatchSize(),
						obs: &trace.NetObserver{R: f.eng.cfg.Recorder, Ctx: ctx}}
					if err := x.admit(int(req.Items)); err != nil {
						t.Fatal(err)
					}
					x.inflight.Wait()
					want := scatteredMatrices(t, x.prog.nets, int(req.Items), seen)
					for i, np := range x.prog.nets {
						blocks, err := x.admitted.nets[i].wait()
						if err != nil {
							t.Fatal(err)
						}
						if got := blocks.Dense(); !sameBits(got.Data, want[i].Data) {
							t.Fatalf("request %d %s: the block table stands for other values than the scattered matrix", n, np.spec.Name)
						}
						for slot, tab := range np.tables {
							if tab.sources > 1 {
								partitioned++
							}
							for item := 0; item < int(req.Items); item++ {
								bag := x.bags(tab.ID, 0, int(req.Items)).Lens[item]
								if h := blocks.Handles[slot*blocks.Stride+item]; (h == 0) != (bag == 0) {
									t.Fatalf("request %d table %d item %d: handle %d for a bag of %d lookups", n, tab.ID, item, h, bag)
								}
							}
						}
					}
				}
				if plan == nsbp && name == "DRM3" && partitioned == 0 {
					t.Fatal("fixture: no row-partitioned table was fetched")
				}
			})
		}
	}
}

// TestDistributedExecutionAllocatesNoEmbMatrix bounds what one DRM1
// execution allocates — main shard and four in-process sparse shards
// together, no rpc frames — now that a fetch's pooled embeddings stay in
// the responses: the zeroed items × ΣDim matrices (two per request,
// ≈ 14 KiB an item) were more than half of it. parentBytes is the same
// loop's figure at the commit before the block table (5fd8184: 610 956
// and 609 792 in two runs; 291 335 here), on the same model, plan and
// requests. A -race build allocates for the detector too, so there the
// figure is only logged.
func TestDistributedExecutionAllocatesNoEmbMatrix(t *testing.T) {
	const parentBytes = 610_000
	cfg := smallModel("DRM1")
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newShardedFixture(t, m, plan, EngineConfig{}, nil)
	gen := workload.NewGenerator(cfg, 21)
	reqs := make([]*RankingRequest, 10)
	for i := range reqs {
		reqs[i] = FromWorkload(gen.Next())
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := f.eng.Execute(trace.Context{TraceID: uint64(i + 1)}, reqs[i%len(reqs)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(10) // workspaces and pools warm
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(runs)
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per execution (parent %d)", perRun, parentBytes)
	if raceEnabled {
		return // 358–393 KB under -race against 283–287 KB without: the bound is the plain build's
	}
	if perRun > 0.6*parentBytes {
		t.Errorf("%.0f bytes allocated per execution, want under 60 %% of the parent's %d", perRun, parentBytes)
	}
}
