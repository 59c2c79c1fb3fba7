package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

func tinyConfig() model.Config {
	cfg := model.DRM2()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 32
		cfg.Tables[i].PoolingFactor = 2
	}
	cfg.MeanItems = 4
	cfg.DefaultBatch = 2
	return cfg
}

// packedRows is a contribution as an assembler receives it: one bag
// length per item — non-zero where present is set — and the wire bytes of
// one row per present item.
func packedRows(present []bool, vals ...float32) partial {
	lens := make([]int32, len(present))
	for i, p := range present {
		if p {
			lens[i] = int32(1 + i%3)
		}
	}
	return partial{rows: appendF32s(nil, vals), lens: lens}
}

// testTables lays out tables of the given widths back to back, as compile
// does, each with the given number of sources.
func testTables(sources int, dims ...int) []netTable {
	tables, col := make([]netTable, len(dims)), 0
	for i, dim := range dims {
		tables[i] = netTable{TableSpec: model.TableSpec{ID: i, Dim: dim}, colOff: col, sources: sources}
		col += dim
	}
	return tables
}

func TestAssemblerSingleSourceIntoBlocks(t *testing.T) {
	asm := newEmbAssembler(3, testTables(1, 1, 3, 1))
	asm.place(0, 0, partial{})
	asm.place(2, 0, partial{})
	p := packedRows([]bool{true, false, true}, 1, 2, 3, 4, 5, 6)
	asm.place(1, 0, p)
	asm.delivered(3)
	emb, err := asm.wait()
	if err != nil {
		t.Fatal(err)
	}
	// Columns [1,4) of the present items' rows hold the pooled values;
	// the absent item's row and every other column read as zero.
	want := []float32{
		0, 1, 2, 3, 0,
		0, 0, 0, 0, 0,
		0, 4, 5, 6, 0,
	}
	if got := emb.Dense().Data; !slices.Equal(got, want) {
		t.Fatalf("emb = %v, want %v", got, want)
	}
	// Nothing was copied: the slot reads the contribution where it lies
	// (a wire-native host views the response bytes in place).
	if data := emb.Slots[1].Data; wireNative && &data[0] != &viewF32s(p.rows)[0] {
		t.Error("the slot's storage is not the contribution's own bytes")
	}
	if want := []uint32{0, 0, 0, 1, 0, 4, 0, 0, 0}; !slices.Equal(emb.Handles, want) {
		t.Errorf("handles = %v, want %v", emb.Handles, want)
	}
}

func TestAssemblerMergesPartials(t *testing.T) {
	asm := newEmbAssembler(1, testTables(3, 2))
	asm.place(0, 2, packedRows([]bool{true}, 1, 10))
	asm.place(0, 0, partial{}) // a source that was not asked contributes nothing
	asm.place(0, 1, packedRows([]bool{true}, 2, 20))
	asm.delivered(3)
	emb, err := asm.wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := emb.Dense().Data; got[0] != 3 || got[1] != 30 {
		t.Errorf("merged = %v", got)
	}
}

func TestAssemblerAllSkippedIsAllAbsent(t *testing.T) {
	asm := newEmbAssembler(3, testTables(2, 4))
	asm.place(0, 0, partial{})
	asm.place(0, 1, packedRows([]bool{false, false, false}))
	asm.delivered(2)
	emb, err := asm.wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range emb.Handles {
		if h != 0 {
			t.Fatalf("handles = %v: no bag had a lookup", emb.Handles)
		}
	}
	for _, v := range emb.Dense().Data {
		if v != 0 {
			t.Fatal("absent blocks should read as zeros")
		}
	}
}

func TestAssemblerErrorWins(t *testing.T) {
	asm := newEmbAssembler(1, testTables(2, 1))
	asm.fail(errors.New("shard down"))
	asm.place(0, 1, packedRows([]bool{true}, 0)) // late success ignored
	asm.delivered(1)
	asm.fail(errors.New("second failure"))
	if _, err := asm.wait(); err == nil || err.Error() != "shard down" {
		t.Fatalf("err = %v; the first error should resolve the net's pooled embeddings", err)
	}
	asm = newEmbAssembler(1, testTables(2, 1))
	asm.place(0, 2, packedRows([]bool{true}, 0))
	if _, err := asm.wait(); err == nil {
		t.Fatal("a part index past the table's parts should fail it")
	}
}

func TestAssemblerWaitsForAllSources(t *testing.T) {
	asm := newEmbAssembler(1, testTables(1, 2, 2))
	asm.place(0, 0, packedRows([]bool{true}, 1, 2))
	asm.delivered(1)
	select {
	case <-asm.done:
		t.Fatal("pooled embeddings completed before all tables delivered")
	default:
	}
	asm.place(1, 0, packedRows([]bool{true}, 3, 4))
	asm.delivered(1)
	emb, err := asm.wait()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := emb.Dense().Data, []float32{1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("emb = %v", got)
	}
}

func TestAppendPart(t *testing.T) {
	l := embedding.Flatten([]embedding.Bag{
		{Indices: []int32{0, 1, 2, 3, 4, 5}},
		{},
		{Indices: []int32{7}},
	})
	// Indices ≡ 1 mod 3: 1, 4 and 7, at local rows 0, 1 and 2, in bags 0
	// and 2 — the middle bag is sent by no one.
	n, bags := countPart(l, 1, 3)
	if n != 3 || bags != 2 {
		t.Fatalf("countPart = %d indices in %d bags, want 3 in 2", n, bags)
	}
	b, sent := appendPart(make([]byte, 0, bagListSize(bags, n)), l, 1, 3, n, bags)
	r := reader{b: b}
	got, present, err := r.bagList()
	if err != nil || len(r.b) != 0 || present != 2 {
		t.Fatalf("read back %+v, %d present, %d bytes over, %v", got, present, len(r.b), err)
	}
	if want := []int32{2, 0, 1}; !slices.Equal(sent, want) {
		t.Errorf("lengths kept %v, want %v", sent, want)
	}
	if want := []int32{2, 1}; !slices.Equal(got.Lens, want) {
		t.Errorf("lengths written %v, want %v", got.Lens, want)
	}
	if want := []int32{0, 1, 2}; !slices.Equal(got.Indices, want) {
		t.Errorf("local indices %v, want %v", got.Indices, want)
	}
}

func TestSparseShardHandle(t *testing.T) {
	rec := trace.NewRecorder("sparse1", 1024)
	sh := NewSparseShard("sparse1", rec)
	tab := embedding.NewDense(8, 2)
	for r := 0; r < 8; r++ {
		tab.Row(r)[0] = float32(r)
	}
	sh.InstallTable(5, 0, tab)
	if sh.NumTables() != 1 || sh.Bytes() != tab.Bytes() {
		t.Fatal("shard accounting wrong")
	}

	req := &SparseRequest{Nets: []string{"net1"}, Entries: []SparseEntry{{
		TableID: 5, NumParts: 1,
		Bags: []embedding.Bag{{Indices: []int32{1, 2}}, {Indices: []int32{7}}},
	}}}
	out, err := sh.Handle(trace.Context{TraceID: 9, CallID: 4}, "sparse.run", EncodeSparseRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeSparseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 1 || resp.Entries[0].Rows != 2 || resp.Entries[0].Cols != 2 {
		t.Fatalf("resp shape wrong: %+v", resp.Entries)
	}
	if resp.Entries[0].Data[0] != 3 { // rows 1+2 pooled
		t.Errorf("pooled = %v", resp.Entries[0].Data)
	}
	// Spans carry the call context for cross-layer attribution.
	var sawSerde, sawOp bool
	for _, sp := range rec.Spans() {
		if sp.TraceID != 9 || sp.CallID != 4 {
			t.Errorf("span missing context: %+v", sp)
		}
		switch sp.Layer {
		case trace.LayerSerDe:
			sawSerde = true
		case trace.LayerOp:
			sawOp = true
			if sp.Kind != "Sparse" {
				t.Errorf("op span kind = %s", sp.Kind)
			}
		}
	}
	if !sawSerde || !sawOp {
		t.Error("missing serde/op spans")
	}
}

// TestSparseShardServesRepeatedEntry: a sparse.run that names one
// (table, part) in two entries is served as asked — each entry pooled
// from its own bag list into its own region — which is what handleRun
// documents; the main shard never sends one. The bag counters — the fill
// ratio that sets the packed response's size — count both entries' bags
// as received.
func TestSparseShardServesRepeatedEntry(t *testing.T) {
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1024))
	reg := obs.NewRegistry()
	sh.SetObs(reg)
	tab := embedding.NewDense(8, 1)
	for r := 0; r < 8; r++ {
		tab.Row(r)[0] = float32(r)
	}
	sh.InstallTable(5, 0, tab)
	req := &SparseRequest{Nets: []string{"net1"}, Entries: []SparseEntry{
		{TableID: 5, NumParts: 1, Bags: []embedding.Bag{{Indices: []int32{1, 2}}, {}}},
		{TableID: 5, NumParts: 1, Bags: []embedding.Bag{{Indices: []int32{7}}, {Indices: []int32{4, 4}}}},
	}}
	out, err := sh.Handle(trace.Context{}, MethodSparseRun, EncodeSparseRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeSparseResponse(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Entries) != 2 || !slices.Equal(resp.Entries[0].Data, []float32{3}) || !slices.Equal(resp.Entries[1].Data, []float32{7, 8}) {
		t.Fatalf("entries %+v, want [3] and [7 8]", resp.Entries)
	}
	if bags, present := reg.Counter("sparse1.sparse.bags").Load(), reg.Counter("sparse1.sparse.bags_present").Load(); bags != 4 || present != 3 {
		t.Errorf("sparse.bags = %d, sparse.bags_present = %d; want 4, 3", bags, present)
	}
}

func TestSparseShardRejectsUnknownTable(t *testing.T) {
	sh := NewSparseShard("s", trace.NewRecorder("s", 64))
	req := &SparseRequest{Nets: []string{"n"}, Entries: []SparseEntry{{TableID: 1, NumParts: 1, Bags: []embedding.Bag{{}}}}}
	if _, err := sh.Handle(trace.Context{}, "sparse.run", EncodeSparseRequest(req)); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("err = %v", err)
	}
	if _, err := sh.Handle(trace.Context{}, "bogus", nil); err == nil {
		t.Error("unknown method should fail")
	}
	if _, err := sh.Handle(trace.Context{}, "sparse.run", []byte{1}); err == nil {
		t.Error("garbage body should fail")
	}
}

func TestMaterializeShards(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{
		trace.NewRecorder("sparse1", 8), trace.NewRecorder("sparse2", 8), trace.NewRecorder("sparse3", 8),
	}
	shards, err := MaterializeShardsTiered(m, plan, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	var bytes int64
	for _, sh := range shards {
		total += sh.NumTables()
		bytes += sh.Bytes()
	}
	if total != len(cfg.Tables) {
		t.Errorf("%d tables materialized, want %d", total, len(cfg.Tables))
	}
	if bytes != m.SparseTableBytes() {
		t.Errorf("shard bytes %d != model %d", bytes, m.SparseTableBytes())
	}
}

func TestMaterializeShardsWithPartitions(t *testing.T) {
	cfg := model.DRM3()
	for i := range cfg.Tables {
		if i == 0 {
			cfg.Tables[i].Rows = 1024
		} else {
			cfg.Tables[i].Rows = 16
		}
	}
	m := model.Build(cfg)
	plan, err := sharding.NSBP(&cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.Recorder, 4)
	for i := range recs {
		recs[i] = trace.NewRecorder(ServiceName(i+1), 8)
	}
	shards, err := MaterializeShardsTiered(m, plan, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Partitioned rows must sum to the original table.
	var partRows int
	for _, sh := range shards {
		for key, tab := range shardTables(sh) {
			if key.TableID == 0 {
				partRows += tab.NumRows()
			}
		}
	}
	if partRows < 1024 {
		t.Errorf("partition rows %d < original 1024", partRows)
	}
}

// shardTables exposes the private map for the materialization test.
func shardTables(s *SparseShard) map[sharding.TableLoadKey]embedding.Table { return s.tables }

func TestMaterializeErrors(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	if _, err := MaterializeShardsTiered(m, sharding.Singular(&cfg), nil, nil); err == nil {
		t.Error("singular plan should fail")
	}
	plan, _ := sharding.CapacityBalanced(&cfg, 2)
	if _, err := MaterializeShardsTiered(m, plan, []*trace.Recorder{trace.NewRecorder("x", 1)}, nil); err == nil {
		t.Error("recorder count mismatch should fail")
	}
}

func TestEngineValidation(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	if _, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{}); err == nil {
		t.Error("missing recorder should fail")
	}
	rec := trace.NewRecorder("main", 64)
	plan, _ := sharding.CapacityBalanced(&cfg, 2)
	if _, err := NewEngine(m, plan, EngineConfig{Recorder: rec}); err == nil {
		t.Error("distributed plan without ClientFor should fail")
	}
	bad := &sharding.Plan{ModelName: cfg.Name, Strategy: sharding.StrategyCapacity, NumShards: 1}
	if _, err := NewEngine(m, bad, EngineConfig{Recorder: rec}); err == nil {
		t.Error("invalid plan should fail")
	}
}

func TestEngineRejectsMalformedRequests(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<14)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 1)
	good := FromWorkload(gen.Next())

	// Zero items.
	bad := *good
	bad.Items = 0
	if _, err := eng.Execute(trace.Context{TraceID: 1}, &bad); err == nil {
		t.Error("zero items should fail")
	}
	// Missing dense net.
	bad2 := *good
	bad2.Dense = map[string]*tensor.Matrix{}
	if _, err := eng.Execute(trace.Context{TraceID: 2}, &bad2); err == nil {
		t.Error("missing dense should fail")
	}
	// Bags length mismatch.
	bad3 := *good
	bad3.Bags = nil
	if _, err := eng.Execute(trace.Context{TraceID: 3}, &bad3); err == nil {
		t.Error("missing bags should fail")
	}
	// Bag lengths that do not add up to the indices carried: one short,
	// one over, one negative with the sum kept.
	for _, edit := range []func(l *embedding.BagList){
		func(l *embedding.BagList) { l.Indices = l.Indices[:len(l.Indices)-1] },
		func(l *embedding.BagList) { l.Indices = append(slices.Clone(l.Indices), 1) },
		func(l *embedding.BagList) {
			l.Lens = slices.Clone(l.Lens)
			l.Lens[0], l.Lens[1] = -1, l.Lens[0]+l.Lens[1]+1
		},
	} {
		bad4 := *good
		bad4.Bags = slices.Clone(good.Bags)
		edit(&bad4.Bags[1].BagList)
		if _, err := eng.Execute(trace.Context{TraceID: 4}, &bad4); err == nil || !strings.Contains(err.Error(), "do not add up") {
			t.Errorf("inconsistent bag lengths: err = %v", err)
		}
	}
}

func TestEngineSingularDeterministic(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	req := FromWorkload(workload.NewGenerator(cfg, 2).Next())
	s1, err := eng.Execute(trace.Context{TraceID: 1}, req)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Execute(trace.Context{TraceID: 2}, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same request must score identically")
		}
	}
	for _, s := range s1 {
		if s < 0 || s > 1 {
			t.Errorf("score %v outside sigmoid range", s)
		}
	}
}

func TestEngineBatchSplitEquivalence(t *testing.T) {
	// Scores must not depend on the batch size.
	cfg := tinyConfig()
	m := model.Build(cfg)
	req := FromWorkload(workload.NewGenerator(cfg, 3).Next())
	var ref []float32
	for _, b := range []int{1, 2, 100} {
		rec := trace.NewRecorder("main", 1<<16)
		eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec, BatchSize: b})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Execute(trace.Context{TraceID: uint64(b)}, req)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("batch %d: score %d differs: %v vs %v", b, i, got[i], ref[i])
			}
		}
	}
}

func TestPickInteract(t *testing.T) {
	tables := []model.TableSpec{
		{ID: 0, Dim: 16}, {ID: 1, Dim: 8}, {ID: 2, Dim: 8}, {ID: 3, Dim: 8},
	}
	got := pickInteract(tables, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("pickInteract = %v, want [1 2] (tail dim 8)", got)
	}
	if pickInteract(nil, 3) != nil {
		t.Error("empty tables should yield nil")
	}
	if pickInteract(tables, 0) != nil {
		t.Error("k=0 should yield nil")
	}
}

func TestFromWorkload(t *testing.T) {
	cfg := tinyConfig()
	req := workload.NewGenerator(cfg, 4).Next()
	wire := FromWorkload(req)
	if wire.ID != req.ID || int(wire.Items) != req.Items {
		t.Fatal("header mismatch")
	}
	if len(wire.Bags) != len(req.Bags) {
		t.Fatal("bags mismatch")
	}
	for i, tb := range wire.Bags {
		if i > 0 && wire.Bags[i-1].TableID >= tb.TableID {
			t.Fatalf("tables out of order: %d after %d", tb.TableID, wire.Bags[i-1].TableID)
		}
		if !bagsEqual(tb.Bags(), req.Bags[int(tb.TableID)]) {
			t.Errorf("table %d: flattened bags differ from the generated ones", tb.TableID)
		}
		if got, _ := wire.BagsOf(tb.TableID); !slices.Equal(got.Indices, tb.Indices) {
			t.Errorf("BagsOf(%d) is not table %d's list", tb.TableID, tb.TableID)
		}
	}
}

func TestServiceName(t *testing.T) {
	if ServiceName(3) != "sparse3" {
		t.Errorf("ServiceName(3) = %q", ServiceName(3))
	}
}

func TestExecuteBatchMatchesExecute(t *testing.T) {
	// A coalesced execution must demux to exactly the scores each request
	// gets through the unbatched path.
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 5)
	var items []BatchItem
	var want [][]float32
	for i := 0; i < 5; i++ {
		req := FromWorkload(gen.Next())
		scores, err := eng.Execute(trace.Context{TraceID: uint64(100 + i)}, req)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, BatchItem{Ctx: trace.Context{TraceID: uint64(i + 1)}, Req: req})
		want = append(want, scores)
	}
	got, err := eng.ExecuteBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("demuxed %d outputs for %d requests", len(got), len(items))
	}
	for i := range got {
		if len(got[i]) != int(items[i].Req.Items) {
			t.Fatalf("request %d: %d scores for %d items", i, len(got[i]), items[i].Req.Items)
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d item %d: batched %v != unbatched %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	// Each coalesced request must carry its own execution span.
	var coalesced int
	for _, s := range rec.Spans() {
		if s.Name == "rank/coalesced" {
			coalesced++
		}
	}
	if coalesced != len(items) {
		t.Errorf("recorded %d rank/coalesced spans, want %d", coalesced, len(items))
	}
}

func TestExecuteBatchEdgeCases(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := eng.ExecuteBatch(nil); out != nil || err != nil {
		t.Errorf("empty batch = %v, %v", out, err)
	}
	req := FromWorkload(workload.NewGenerator(cfg, 6).Next())
	single, err := eng.ExecuteBatch([]BatchItem{{Ctx: trace.Context{TraceID: 1}, Req: req}})
	if err != nil || len(single) != 1 || len(single[0]) != int(req.Items) {
		t.Fatalf("single-item batch = %v, %v", single, err)
	}
	bad := &RankingRequest{ID: 99, Items: 0}
	if _, err := eng.ExecuteBatch([]BatchItem{{Req: req}, {Req: bad}}); err == nil {
		t.Error("malformed member must fail batch validation")
	}
}
