package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// drm1Call is one sparse.run call shaped like DRM1's: 64 tables of dim
// 16 on one shard, a 16-item batch, bags averaging under one index.
type drm1Call struct {
	tables []embedding.Table
	bags   [][]embedding.Bag
	np     *netProgram
}

const (
	drm1Entries = 64
	drm1Batch   = 16
	drm1Dim     = 16
)

func newDRM1Call() *drm1Call {
	rng := rand.New(rand.NewSource(11))
	c := &drm1Call{np: &netProgram{spec: model.NetSpec{Name: "net1"}, embCols: drm1Entries * drm1Dim}}
	for id := 0; id < drm1Entries; id++ {
		c.tables = append(c.tables, embedding.NewDenseRandom(rng, 4096, drm1Dim, 1))
		bags := make([]embedding.Bag, drm1Batch)
		for b := range bags {
			for k := rng.Intn(3) * rng.Intn(2); k > 0; k-- {
				bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(4096)))
			}
		}
		c.bags = append(c.bags, bags)
		c.np.tables = append(c.np.tables, netTable{
			TableSpec: model.TableSpec{ID: id, Rows: 4096, Dim: drm1Dim}, colOff: id * drm1Dim, sources: 1,
		})
	}
	return c
}

func (c *drm1Call) request() *SparseRequest {
	req := &SparseRequest{Nets: []string{"net1"}}
	for id, bags := range c.bags {
		req.Entries = append(req.Entries, SparseEntry{TableID: int32(id), NumParts: 1, Bags: bags})
	}
	return req
}

// BenchmarkSparseRunRoundTrip is the whole rank → sparse.run → scatter
// hop chain for one call over loopback TCP: the main shard's RPC
// operator lays the body out from the flat bag lists and issues the call,
// the shard walks it in place, pools and answers, and the operator's
// goroutine points the fetch's block table at the pooled rows. allocs/op is the gated number
// (cmd/benchcheck): every hop is meant to make one allocation.
func BenchmarkSparseRunRoundTrip(b *testing.B) {
	c := newDRM1Call()
	rec := trace.NewRecorder("sparse1", 1<<10)
	sh := NewSparseShard("sparse1", rec)
	for id, tab := range c.tables {
		sh.AddTable(id, tab)
	}
	srv, err := rpc.NewServer("127.0.0.1:0", sh, rpc.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := rpc.DialPool(srv.Addr(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	plan := &callPlan{nets: []*netProgram{c.np}, names: []string{"net1"}, label: "net1"}
	group := remoteGroupSpec{service: "sparse1", op: "rpc_net1_sparse1", client: client}
	// The request as admission leaves it: every table's lengths, and its
	// indices already hashed.
	req, hash := &RankingRequest{Items: drm1Batch}, &nn.HashAllBags{}
	for id, bags := range c.bags {
		group.entries = append(group.entries, groupEntry{slot: id, numParts: 1})
		l := embedding.Flatten(bags)
		req.Bags = append(req.Bags, TableBags{TableID: int32(id), BagList: l})
		hash.Entries = append(hash.Entries, nn.HashEntry{Out: l.Indices})
	}
	plan.groups = []remoteGroupSpec{group}
	eng := &Engine{cfg: EngineConfig{Recorder: trace.NewRecorder("main", 1<<10)}}
	var sink *tensor.Blocks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := &execution{e: eng, ctx: trace.Context{TraceID: uint64(i + 1)}, req: req, hash: hash, batch: drm1Batch}
		f := x.newFetch(plan, 0, drm1Batch)
		if err := f.ops()[0].Run(nil); err != nil {
			b.Fatal(err)
		}
		if sink, err = f.nets[0].wait(); err != nil {
			b.Fatal(err)
		}
		x.inflight.Wait()
	}
	_ = sink
}

// BenchmarkRankAdmission is the request direction of one DRM1 request on
// 4 load-balanced shards, alone: a rank body as the rpc server hands it
// over → read (DecodeRankingRequest) → validated → every index hashed →
// the four sparse.run bodies laid out → each walked as its shard would
// (the in-place read that bounds and sums every bag list and counts the
// non-empty bags a response is sized from). No table is touched and no
// response exists; what is left is exactly the work of carrying ≈ 9 000
// bags, three quarters of them empty, from the client's frame to the
// pooling kernel's operands. allocs/op is gated (cmd/benchcheck);
// BENCH_baseline.json also holds the parent's typed path over the same
// operands.
func BenchmarkRankAdmission(b *testing.B) {
	cfg := model.ByName("DRM1")
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 64 + i%7 // admission reads no row; building 194 MiB of them would only cost time
	}
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 4, nil)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(m, plan, EngineConfig{
		Recorder:  trace.NewRecorder("main", 1<<10),
		ClientFor: func(string) (rpc.Caller, error) { return nil, nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	call := eng.prog.Load().nets[0].call
	const pool = 64
	gen := workload.NewGenerator(model.ByName("DRM1"), 1)
	bodies := make([][]byte, pool)
	for i := range bodies {
		// Aligned as the rpc server aligns a request body.
		body := EncodeRankingRequest(FromWorkload(gen.Next()))
		bodies[i] = append(alignedBytes(len(body))[:0], body...)
	}
	var bags, present, lookups int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := DecodeRankingRequest(bodies[i%pool])
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Validate(req); err != nil {
			b.Fatal(err)
		}
		x := &execution{e: eng, req: req, hash: &nn.HashAllBags{OpName: "hash", Entries: make([]nn.HashEntry, len(cfg.Tables))}}
		for _, t := range cfg.Tables {
			l, _ := req.BagsOf(int32(t.ID))
			x.hash.Entries[t.ID] = nn.HashEntry{Buckets: int32(t.Rows), In: l.Indices}
		}
		if err := x.hash.Run(nil); err != nil {
			b.Fatal(err)
		}
		f := &sparseFetch{x: x, plan: call, rows: int(req.Items)}
		for g := range call.groups {
			body, _ := (&rpcOp{f: f, g: &call.groups[g]}).layout()
			_, run, err := readRun(body)
			if err != nil {
				b.Fatal(err)
			}
			for i := range run {
				bags, present, lookups = bags+len(run[i].Lens), present+run[i].present, lookups+len(run[i].Indices)
			}
		}
	}
	if present == 0 || present >= bags || lookups < present {
		b.Fatalf("fixture: %d bags, %d non-empty, %d lookups", bags, present, lookups)
	}
	b.ReportMetric(float64(bags)/float64(b.N), "bags/op")
	b.ReportMetric(float64(lookups)/float64(b.N), "lookups/op")
}

// TestCodecAllocCeilings holds each serving-path codec to the handful of
// exactly-sized allocations its message needs, on a DRM1-shaped call. The
// request direction is read in place: what a decoded ranking request and
// a sparse.run request walked by a shard allocate follows the number of
// tables, not of bags — in count and in bytes (the parent's decoders built
// a 24-byte header per bag, and copied every index).
func TestCodecAllocCeilings(t *testing.T) {
	c := newDRM1Call()
	sreq := c.request()
	sreqBytes := EncodeSparseRequest(sreq)
	sresp := &SparseResponse{}
	rreq := &RankingRequest{
		ID: 1, Items: drm1Batch,
		Dense: map[string]*tensor.Matrix{"net1": tensor.New(drm1Batch, 13), "net2": tensor.New(drm1Batch, 13)},
	}
	for id, bags := range c.bags {
		l := embedding.Flatten(bags)
		data := make([]float32, l.Present()*drm1Dim)
		embedding.Pool([]embedding.PoolEntry{{Table: c.tables[id], Lens: l.Lens, Indices: l.Indices, Out: data}})
		sresp.Entries = append(sresp.Entries, PooledEntry{TableID: int32(id), Rows: drm1Batch, Cols: drm1Dim, Data: data})
		rreq.Bags = append(rreq.Bags, TableBags{TableID: int32(id), BagList: l})
	}
	srespBytes := EncodeSparseResponse(sresp)
	rreqBytes := EncodeRankingRequest(rreq)
	rresp := &RankingResponse{Scores: make([]float32, drm1Batch)}
	rrespBytes := EncodeRankingResponse(rresp)
	if !wireNative || !aligned4(sreqBytes) || !aligned4(rreqBytes[8:]) {
		t.Skip("bodies are not readable in place here: the decoders copy")
	}

	for _, tc := range []struct {
		name    string
		ceiling float64
		// bytes bounds what one call allocates; 0 leaves it unchecked.
		bytes uint64
		f     func()
	}{
		// slots, the body
		{"EncodeSparseRequest", 2, 0, func() { EncodeSparseRequest(sreq) }},
		// net table, net name, entries: 152 bytes an entry and nothing per
		// bag (the parent: 16 × 24 bytes of headers an entry, plus indices)
		{"readRun", 3, drm1Entries*160 + 256, func() { readRun(sreqBytes) }},
		// slots, the body
		{"EncodeSparseResponse", 2, 0, func() { EncodeSparseResponse(sresp) }},
		// response, entries, values
		{"DecodeSparseResponse", 3, 0, func() { DecodeSparseResponse(srespBytes) }},
		// a sorted key list, the body
		{"EncodeRankingRequest", 2, 0, func() { EncodeRankingRequest(rreq) }},
		// request, the table list (56 bytes a table); per net a name, its
		// values and a matrix; and the dense map
		{"DecodeRankingRequest", 10, drm1Entries*56 + 4096, func() { DecodeRankingRequest(rreqBytes) }},
		{"EncodeRankingResponse", 1, 0, func() { EncodeRankingResponse(rresp) }},
		// response, scores
		{"DecodeRankingResponse", 2, 0, func() { DecodeRankingResponse(rrespBytes) }},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per call (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
		if tc.bytes > 0 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			tc.f()
			runtime.ReadMemStats(&m1)
			if got := m1.TotalAlloc - m0.TotalAlloc; got > tc.bytes {
				t.Errorf("%s: %d bytes allocated per call, ceiling %d", tc.name, got, tc.bytes)
			} else {
				t.Logf("%s: %d bytes per call (ceiling %d)", tc.name, got, tc.bytes)
			}
		}
	}
}
