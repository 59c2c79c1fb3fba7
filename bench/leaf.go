package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/platform"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Leaf costs: what happens inside a layer, below the interfaces the shims
// sit on. Each is measured after the traced phase by replaying inputs the
// deployment really saw through the leaf's public functions.

const (
	leafRequests = 32  // pool requests the codec and GEMM leaves replay
	leafPasses   = 3   // replays by the SLS and GEMM leaves; the last is timed
	echoCalls    = 400 // round trips of the echo leaf
)

func leaves(r *result, fx *fixture, t *tracer) error {
	// Start from a collected heap: the leaves allocate, and a cycle
	// landing in one of them would be charged to it.
	runtime.GC()
	codecLeaf(r, fx, t)
	if err := slsLeaf(r, fx, t); err != nil {
		return err
	}
	gemmLeaf(r, fx)
	return echoLeaf(r, fx)
}

// allocatedKB runs f and returns how long it took and what it allocated.
func allocatedKB(f func()) (time.Duration, float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	took := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return took, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024
}

// codecLeaf replays rank bodies of the pool and the captured sparse
// bodies through core's Encode*/Decode* pairs.
func codecLeaf(r *result, fx *fixture, t *tracer) {
	n := min(leafRequests, len(fx.bodies))
	rank, rankKB := allocatedKB(func() {
		for i := 0; i < n; i++ {
			if req, err := core.DecodeRankingRequest(fx.bodies[i]); err == nil {
				core.EncodeRankingRequest(req)
			}
			if resp, err := core.DecodeRankingResponse(fx.want[i]); err == nil {
				core.EncodeRankingResponse(resp)
			}
		}
	})
	r.set("core.codec.rank_us_per_req", float64(rank.Microseconds())/float64(n))
	allocKB := rankKB / float64(n)

	served := 0
	sparse, sparseKB := allocatedKB(func() {
		for _, lead := range t.leads {
			e := t.captured[lead]
			served += e.served
			for _, c := range e.calls {
				if req, err := core.DecodeSparseRequest(c.req); err == nil {
					core.EncodeSparseRequest(req)
				}
				if resp, err := core.DecodeSparseResponse(c.resp); err == nil {
					core.EncodeSparseResponse(resp)
				}
			}
		}
	})
	if served > 0 {
		r.set("core.codec.sparse_us_per_req", float64(sparse.Microseconds())/float64(served))
		allocKB += sparseKB / float64(served)
	}
	r.set("core.codec.alloc_kb_per_req", allocKB)
}

// leafTable builds a table the way a sparse shard stores it, from the
// public constructors core's tier wrapping uses.
func (fx *fixture) leafTable(tableID int) (embedding.Table, error) {
	dense, ok := fx.model.Tables[tableID].(*embedding.Dense)
	if !ok {
		return nil, fmt.Errorf("bench: table %d is not fp32 dense", tableID)
	}
	if fx.tier == nil {
		return dense, nil
	}
	var cold embedding.Table = dense
	switch fx.tier.Plan.Precision(tableID) {
	case sharding.PrecisionInt8:
		cold = dense.Quantize(quant.Bits8)
	case sharding.PrecisionFP16:
		cold = dense.ToFP16()
	}
	// The shard apportions its cache by measured load; the leaf gives
	// each table its share of the deployment's budget by bytes.
	share := float64(dense.Bytes()) / float64(fx.model.Config.SparseBytes())
	rows := int(share * cacheMB * mib * float64(fx.plan.NumShards) / float64(dense.DimN*4))
	return embedding.NewTiered(cold, min(rows, dense.RowsN)), nil
}

// slsLeaf replays the captured bags through embedding.SLS and counts how
// many lookups of one execution repeat a (table, row) it already read.
func slsLeaf(r *result, fx *fixture, t *tracer) error {
	type work struct {
		table embedding.Table
		bags  []embedding.Bag
		out   []float32
	}
	tables := make(map[int32]embedding.Table)
	var all []work
	var lookups, dups int
	for _, lead := range t.leads {
		seen := make(map[[3]int32]bool)
		for _, c := range t.captured[lead].calls {
			req, err := core.DecodeSparseRequest(c.req)
			if err != nil {
				return err
			}
			for _, e := range req.Entries {
				for _, bag := range e.Bags {
					for _, row := range bag.Indices {
						key := [3]int32{e.TableID, e.PartIndex, row}
						if seen[key] {
							dups++
						}
						seen[key] = true
					}
				}
				if e.NumParts > 1 {
					continue // no load-balanced plan splits a table
				}
				tab, ok := tables[e.TableID]
				if !ok {
					if tab, err = fx.leafTable(int(e.TableID)); err != nil {
						return err
					}
					tables[e.TableID] = tab
				}
				all = append(all, work{tab, e.Bags, make([]float32, len(e.Bags)*tab.Dim())})
				lookups += embedding.TotalLookups(e.Bags)
			}
		}
	}
	if lookups == 0 {
		return nil
	}
	var took time.Duration
	for pass := 0; pass < leafPasses; pass++ {
		t0 := time.Now()
		for _, w := range all {
			embedding.SLS(w.out, w.table, w.bags)
		}
		took = time.Since(t0)
	}
	r.set("embedding.sls_us_per_klookup", float64(took.Nanoseconds())/float64(lookups))
	r.set("embedding.dup_lookup_pct", 100*float64(dups)/float64(lookups))
	r.notes["embedding.sls_us_per_klookup"] = fmt.Sprintf("%d lookups of %d executions", lookups, len(t.captured))
	return nil
}

// gemmLeaf runs the model's FC shapes, at the batch sizes the engine cuts
// the pool's requests into, through tensor.MatMul.
func gemmLeaf(r *result, fx *fixture) {
	batch := fx.model.Config.DefaultBatch
	ins := make(map[[2]int]*tensor.Matrix)
	mat := func(rows, cols int) *tensor.Matrix {
		k := [2]int{rows, cols}
		if ins[k] == nil {
			ins[k] = tensor.New(rows, cols)
			for i := range ins[k].Data {
				ins[k].Data[i] = 0.5 // a kernel may skip zeros
			}
		}
		return ins[k]
	}
	var weights []*tensor.Matrix
	for _, np := range fx.model.NetParams {
		for _, fc := range np.Bottom {
			weights = append(weights, fc.W)
		}
		weights = append(weights, np.Proj.W)
		for _, fc := range np.Top {
			weights = append(weights, fc.W)
		}
	}
	n := min(leafRequests, len(fx.pool))
	var flops float64
	var took time.Duration
	for pass := 0; pass < leafPasses; pass++ {
		flops = 0
		t0 := time.Now()
		for _, req := range fx.pool[:n] {
			for at := 0; at < req.items; at += batch {
				rows := min(batch, req.items-at)
				for _, w := range weights {
					tensor.MatMul(mat(rows, w.Cols), mat(rows, w.Rows), w)
					flops += 2 * float64(rows) * float64(w.Rows) * float64(w.Cols)
				}
			}
		}
		took = time.Since(t0)
	}
	r.set("tensor.gemm_ms_per_req", ms(took)/float64(n))
	r.set("tensor.gemm_gflops", flops/took.Seconds()/1e9)
	r.notes["tensor.gemm_gflops"] = fmt.Sprintf("%.0f computed flop per request", flops/float64(n))
}

// echoLeaf times the bare rpc round trip: a server configured like the
// main server whose handler returns at once, a median-size rank body, no
// netsim link.
func echoLeaf(r *result, fx *fixture) error {
	sizes := make([]int, len(fx.bodies))
	for i, b := range fx.bodies {
		sizes[i] = len(b)
	}
	sort.Ints(sizes)
	body := make([]byte, sizes[len(sizes)/2])
	echo := rpc.HandlerFunc(func(trace.Context, string, []byte) ([]byte, error) { return nil, nil })
	srv, err := rpc.NewServer("127.0.0.1:0", echo, rpc.ServerConfig{BoilerplateCost: platform.BaseBoilerplate})
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := rpc.DialPool(srv.Addr(), nil, 1)
	if err != nil {
		return err
	}
	defer client.Close()
	took := make([]float64, 0, echoCalls)
	for i := 0; i < echoCalls; i++ {
		t0 := time.Now()
		if _, err := client.CallSync(&rpc.Request{Method: "echo", CallID: uint64(i + 1), Body: body}); err != nil {
			return err
		}
		took = append(took, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.set("rpc.echo_us_p50", quantile(took, 0.5))
	r.notes["rpc.echo_us_p50"] = fmt.Sprintf("%d calls, %d-byte body", echoCalls, len(body))
	return nil
}
