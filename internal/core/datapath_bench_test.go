package core

import (
	"math/rand"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/tensor"
	"repro/internal/trace"
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
// operator serializes the bags and issues the call, the shard decodes,
// pools and answers, and the operator's goroutine moves the pooled rows
// into the fetch's embedding matrix. allocs/op is the gated number
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
	hash := &nn.HashAllBags{}
	for id, bags := range c.bags {
		group.entries = append(group.entries, groupEntry{slot: id, numParts: 1})
		hash.Entries = append(hash.Entries, nn.HashEntry{Out: bags})
	}
	plan.groups = []remoteGroupSpec{group}
	eng := &Engine{cfg: EngineConfig{Recorder: trace.NewRecorder("main", 1<<10)}}
	var sink *tensor.Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := &execution{e: eng, ctx: trace.Context{TraceID: uint64(i + 1)}, hash: hash}
		f := x.newFetch(plan, 0, drm1Batch)
		if err := f.ops()[0].Run(nil); err != nil {
			b.Fatal(err)
		}
		if sink, err = f.nets[0].future.Wait(); err != nil {
			b.Fatal(err)
		}
		x.inflight.Wait()
	}
	_ = sink
}

// TestCodecAllocCeilings holds each serving-path codec to the handful of
// exactly-sized allocations its message needs, on a DRM1-shaped call:
// the parent's decoders made one allocation per non-empty bag (hundreds
// here) and its encoders grew their buffer a dozen times.
func TestCodecAllocCeilings(t *testing.T) {
	c := newDRM1Call()
	sreq := c.request()
	sreqBytes := EncodeSparseRequest(sreq)
	sresp := &SparseResponse{}
	for id, bags := range c.bags {
		data := make([]float32, embedding.PresentBags(bags)*drm1Dim)
		embedding.Pool([]embedding.PoolEntry{{Table: c.tables[id], Bags: bags, Out: data}})
		sresp.Entries = append(sresp.Entries, PooledEntry{TableID: int32(id), Rows: drm1Batch, Cols: drm1Dim, Data: data})
	}
	srespBytes := EncodeSparseResponse(sresp)
	rreq := &RankingRequest{
		ID: 1, Items: drm1Batch,
		Dense: map[string]*tensor.Matrix{"net1": tensor.New(drm1Batch, 13), "net2": tensor.New(drm1Batch, 13)},
		Bags:  make(map[int32][]embedding.Bag),
	}
	for id, bags := range c.bags {
		rreq.Bags[int32(id)] = bags
	}
	rreqBytes := EncodeRankingRequest(rreq)
	rresp := &RankingResponse{Scores: make([]float32, drm1Batch)}
	rrespBytes := EncodeRankingResponse(rresp)

	for _, tc := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		// the body
		{"EncodeSparseRequest", 1, func() { EncodeSparseRequest(sreq) }},
		// request, net table, net name, entries, bag headers, indices
		{"DecodeSparseRequest", 6, func() { DecodeSparseRequest(sreqBytes) }},
		// slots, the body
		{"EncodeSparseResponse", 2, func() { EncodeSparseResponse(sresp) }},
		// response, entries, values
		{"DecodeSparseResponse", 3, func() { DecodeSparseResponse(srespBytes) }},
		// two sorted key lists, the body
		{"EncodeRankingRequest", 3, func() { EncodeRankingRequest(rreq) }},
		// request, bag headers, indices; per net a name, its values and a
		// matrix; and the two maps (the bags map at 64 keys is the bulk)
		{"DecodeRankingRequest", 16, func() { DecodeRankingRequest(rreqBytes) }},
		{"EncodeRankingResponse", 1, func() { EncodeRankingResponse(rresp) }},
		// response, scores
		{"DecodeRankingResponse", 2, func() { DecodeRankingResponse(rrespBytes) }},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per call, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per call (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
	}
}
