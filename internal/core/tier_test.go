package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// localCaller adapts a Handler into an in-process rpc.Caller so forward
// hops in these tests need no TCP server.
type localCaller struct{ h rpc.Handler }

func (l *localCaller) Go(req *rpc.Request) *rpc.Call {
	call := &rpc.Call{Req: req, Done: make(chan struct{})}
	body, err := l.h.Handle(trace.Context{TraceID: req.TraceID, CallID: req.CallID}, req.Method, req.Body)
	if err != nil {
		call.Err = err
	} else {
		call.Resp = &rpc.Response{CallID: req.CallID, Body: body}
	}
	close(call.Done)
	return call
}

func (l *localCaller) Close() error { return nil }

// tierConfigFor builds a shard tier config that quantizes every table of
// the tiny model (whose tables are all below the planner's default
// MinTableBytes) at the given precision.
func tierConfigFor(cfg *model.Config, prec sharding.Precision, cacheMB float64) *TierConfig {
	return &TierConfig{
		CacheMB: cacheMB,
		Plan:    sharding.PlanTiers(cfg, sharding.TierOptions{ColdPrecision: prec, MinTableBytes: 1}),
	}
}

// newTieredMigrationFixture is newMigrationFixture with the tiered store
// enabled on both shards.
func newTieredMigrationFixture(t *testing.T, prec sharding.Precision, cacheMB float64) *migrationFixture {
	t.Helper()
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 1<<14), trace.NewRecorder("sparse2", 1<<14)}
	shards, err := MaterializeShardsTiered(m, plan, recs, tierConfigFor(&cfg, prec, cacheMB))
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{m: m, plan: plan, shards: shards}
	t.Cleanup(func() {
		for _, sh := range f.shards {
			sh.Close()
		}
	})
	return f
}

// TestTieredMigrationIdentity walks a tiered table — fp32 or fp16 behind
// a cache, int8 bare — through the cutover states and requires
// byte-identical pooled results throughout: encoded rows stream verbatim,
// a committed cached copy starts with a cold cache, and the double-read
// window serves from the retained copy.
func TestTieredMigrationIdentity(t *testing.T) {
	for _, prec := range []sharding.Precision{sharding.PrecisionFP32, sharding.PrecisionFP16, sharding.PrecisionInt8} {
		t.Run(string(prec), func(t *testing.T) {
			f := newTieredMigrationFixture(t, prec, 1)
			src, dst := f.shards[0], f.shards[1]
			id := f.plan.Shards[0].Tables[0]
			ctx := trace.Context{TraceID: 11}
			body := f.runRequest(t, 42)

			// Warm the source cache so migration must cope with live
			// cached state.
			before, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := src.Handle(ctx, MethodSparseRun, body); err != nil || !bytes.Equal(before, again) {
				t.Fatalf("warm-cache replay diverged (err %v)", err)
			}

			f.migrateTable(t, id, 5)

			// The committed copy's encoding must match the source's.
			srcStats, dstStats := src.TierSnapshot(), dst.TierSnapshot()
			switch prec {
			case sharding.PrecisionInt8:
				if dstStats.Int8 == 0 {
					t.Fatalf("destination has no int8 tables after migration: %+v", dstStats)
				}
			case sharding.PrecisionFP16:
				if dstStats.FP16 == 0 {
					t.Fatalf("destination has no fp16 tables after migration: %+v", dstStats)
				}
			}
			_ = srcStats

			// Double-read window: source still serves identically.
			during, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, during) {
				t.Fatal("double-read during cutover diverged")
			}

			// Source forwards to the destination; results still identical.
			caller := &localCaller{h: dst}
			src.BeginForward(id, 0, "sparse2", caller, true)
			after, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("forwarded result diverged from pre-migration result")
			}
		})
	}
}

// TestTieredShardMatchesPlainFP32 pins that enabling the cache over an
// fp32 cold tier changes nothing: a tiered shard and a plain shard
// serve byte-identical responses.
func TestTieredShardMatchesPlainFP32(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := func() []*trace.Recorder {
		return []*trace.Recorder{trace.NewRecorder("sparse1", 1<<14), trace.NewRecorder("sparse2", 1<<14)}
	}
	plain, err := MaterializeShards(m, plan, recs())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := MaterializeShardsTiered(m, plan, recs(), &TierConfig{CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{m: m, plan: plan, shards: plain}
	body := f.runRequest(t, 7)
	ctx := trace.Context{}
	want, err := plain[0].Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ { // later passes serve from the cache
		got, err := tiered[0].Handle(ctx, MethodSparseRun, body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("pass %d: tiered fp32 shard diverged from plain shard", pass)
		}
	}
	if st := tiered[0].TierSnapshot(); st.Hits == 0 {
		t.Fatalf("replays produced no cache hits: %+v", st)
	}
}

// TestQuantizedTierIsUncached: under a cache budget an int8 cold tier is
// installed bare — no cache capacity is apportioned to it — and serves
// exactly the bytes the same tier without a budget does.
func TestQuantizedTierIsUncached(t *testing.T) {
	cached := newTieredMigrationFixture(t, sharding.PrecisionInt8, 1)
	bare := newTieredMigrationFixture(t, sharding.PrecisionInt8, 0)
	for i, sh := range cached.shards {
		if st := sh.TierSnapshot(); st.Int8 != st.Tables || st.CacheCapBytes != 0 {
			t.Fatalf("shard %d under a 1 MiB budget: %+v, want every table int8 and no cache", i, st)
		}
	}
	ctx := trace.Context{}
	for seed := int64(1); seed <= 3; seed++ {
		body := cached.runRequest(t, seed)
		want, err := bare.shards[0].Handle(ctx, MethodSparseRun, body)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.shards[0].Handle(ctx, MethodSparseRun, body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("request %d: the int8 tier under a cache budget pooled other bytes", seed)
		}
	}
}

// TestSetTierWrapsImportedTables covers drmserve's shard-file path:
// import plain fp32 tables, then SetTier encodes them to fp16 and caches
// them.
func TestSetTierWrapsImportedTables(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	for id, tab := range m.Tables {
		sh.AddTable(id, tab)
	}
	before := sh.Bytes()
	sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionFP16, 0.01))
	st := sh.TierSnapshot()
	if st.FP16 != len(m.Tables) {
		t.Fatalf("SetTier encoded %d of %d tables to fp16", st.FP16, len(m.Tables))
	}
	if st.ColdBytes >= before {
		t.Fatalf("tiering did not shrink cold bytes: %d -> %d", before, st.ColdBytes)
	}
	if st.CacheCapBytes == 0 {
		t.Fatal("cache budget not apportioned")
	}
	budgetMB := 0.01
	if budget := int64(budgetMB * float64(1<<20)); st.CacheCapBytes > budget {
		t.Fatalf("cache backing %d exceeds the %d-byte budget", st.CacheCapBytes, budget)
	}
}

// TestRetierFollowsLoad pins the budget apportionment: after skewed
// traffic, the hot table's cache capacity must exceed a cold one's.
func TestRetierFollowsLoad(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	// A deliberately scarce budget: the apportionment must choose, so the
	// hot table's share visibly beats a cold one's.
	sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionFP16, 0.002))
	for id, tab := range m.Tables {
		sh.AddTable(id, tab)
	}
	// Fold skewed measured load straight into the accumulator: table 0
	// carries 100× the lookups of the rest.
	sh.loadMu.Lock()
	for id := range m.Tables {
		lookups := int64(10)
		if id == 0 {
			lookups = 1000
		}
		sh.load.Add(sharding.TableLoadKey{TableID: id}, sharding.TableLoad{Lookups: lookups, Calls: 1})
	}
	sh.loadMu.Unlock()
	sh.retier()

	capOf := func(id int) int {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		tt, ok := sh.tables[tableKey{id: id}].(*embedding.TieredTable)
		if !ok {
			t.Fatalf("table %d not tiered", id)
		}
		return tt.Capacity()
	}
	hot, cold := capOf(0), capOf(1)
	if hot <= cold {
		t.Fatalf("hot table capacity %d not above cold %d", hot, cold)
	}
}

// TestRetierFloorSeedsNewcomer pins the migrated-table case: a table
// that just arrived has zero measured load on this shard — it moved
// because it was hot at the *source* — and must still be seeded with a
// bytes-proportional slice of the cache budget instead of starting (and
// staying) cacheless.
func TestRetierFloorSeedsNewcomer(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionFP16, 0.05))
	for id, tab := range m.Tables {
		sh.AddTable(id, tab)
	}
	// Existing tables carry measured load; the newcomer will not.
	sh.loadMu.Lock()
	for id := range m.Tables {
		sh.load.Add(sharding.TableLoadKey{TableID: id}, sharding.TableLoad{Lookups: 500, Calls: 1})
	}
	sh.loadMu.Unlock()

	newcomer := len(m.Tables)
	sh.InstallTable(newcomer, 0, embedding.NewDense(64, 16))
	sh.mu.RLock()
	tt, ok := sh.tables[tableKey{id: newcomer}].(*embedding.TieredTable)
	sh.mu.RUnlock()
	if !ok {
		t.Fatal("newcomer not tiered")
	}
	if tt.Capacity() == 0 {
		t.Fatal("zero-load newcomer received no cache capacity (bytes floor missing)")
	}
}

// TestRetierDeterministic pins the cache-budget split to table order:
// building the same shard with the same measured load must size every
// cache identically run after run, not drift with map iteration order
// of the table set.
func TestRetierDeterministic(t *testing.T) {
	cfg := tinyConfig()
	build := func() map[int]int {
		m := model.Build(cfg)
		sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
		sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionFP16, 0.002))
		for id, tab := range m.Tables {
			sh.AddTable(id, tab)
		}
		sh.loadMu.Lock()
		for id := range m.Tables {
			sh.load.Add(sharding.TableLoadKey{TableID: id},
				sharding.TableLoad{Lookups: int64(100 * (id + 1)), Calls: 1})
		}
		sh.loadMu.Unlock()
		sh.retier()
		caps := make(map[int]int)
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for key, tab := range sh.tables {
			if tt, ok := tab.(*embedding.TieredTable); ok {
				caps[key.id] = tt.Capacity()
			}
		}
		return caps
	}
	base := build()
	if len(base) == 0 {
		t.Fatal("no tiered tables built")
	}
	for run := 0; run < 8; run++ {
		caps := build()
		for id, c := range caps {
			if c != base[id] {
				t.Fatalf("run %d: table %d capacity %d, first run gave %d", run, id, c, base[id])
			}
		}
	}
}

// TestStagedTableErrors covers the staging guards: unknown encodings,
// and rows whose bytes are not whole rows of the staged encoding — the
// form an encoding mismatch between driver and stage takes now that
// rows travel as bytes.
func TestStagedTableErrors(t *testing.T) {
	if _, err := newRowStore(TableShape{Rows: 4, Dim: 4, Enc: 99}); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	for _, enc := range []int32{TierEncFP32, TierEncFP16, TierEncInt8, TierEncInt4} {
		st, err := newRowStore(TableShape{Rows: 4, Dim: 6, Enc: enc})
		if err != nil {
			t.Fatal(err)
		}
		stride, _ := tierEncStride(enc, 6)
		if n, err := st.SetRowRange(1, make([]byte, 2*stride)); err != nil || n != 2 {
			t.Fatalf("enc %d: two whole rows: %d, %v", enc, n, err)
		}
		if _, err := st.SetRowRange(0, make([]byte, stride+1)); err == nil {
			t.Fatalf("enc %d: partial row accepted", enc)
		}
		if _, err := st.SetRowRange(3, make([]byte, 2*stride)); err == nil {
			t.Fatalf("enc %d: rows past the end accepted", enc)
		}
	}

	// Wire-level: fp32 rows put into an int8 stage are refused (4·dim
	// bytes are not whole 4+dim-byte rows), and a clone begin that names
	// the wrong encoding never opens a stage.
	f := newTieredMigrationFixture(t, sharding.PrecisionInt8, 0)
	dst := f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{}
	shape := heldShape(t, f.shards[0], id, 0)
	if shape.Enc != TierEncInt8 {
		t.Fatalf("int8 fixture reports encoding %d", shape.Enc)
	}
	const txn = anonTxn | 3
	if _, err := dst.Handle(ctx, MethodStageBegin, encodeMsg(&StageBegin{Txn: txn, Shape: shape, Base: StageEmpty})); err != nil {
		t.Fatal(err)
	}
	_, err := dst.Handle(ctx, MethodStagePut, encodeMsg(&StagePut{
		Txn: txn, TableID: int32(id), Rows: make([]byte, 4*int(shape.Dim)),
	}))
	if err == nil || !strings.Contains(err.Error(), "stride") {
		t.Fatalf("fp32 rows into int8 staging accepted (err %v)", err)
	}
	asFP32 := shape
	asFP32.Enc = TierEncFP32
	_, err = f.shards[0].Handle(ctx, MethodStageBegin, encodeMsg(&StageBegin{Txn: txn, Shape: asFP32, Base: StageClone}))
	if err == nil || !strings.Contains(err.Error(), "held as") {
		t.Fatalf("clone begin with mismatched encoding accepted (err %v)", err)
	}
}

// TestTableEncClassification covers the wire encoding classifier.
func TestTableEncClassification(t *testing.T) {
	d := embedding.NewDense(4, 4)
	cases := []struct {
		tab  embedding.Table
		want int32
	}{
		{d, TierEncFP32},
		{d.ToFP16(), TierEncFP16},
		{d.Quantize(quant.Bits8), TierEncInt8},
		{d.Quantize(quant.Bits4), TierEncInt4},
		{embedding.NewTiered(d.Quantize(quant.Bits8), 2), TierEncInt8},
	}
	for i, c := range cases {
		rows, got, err := rowsOf(c.tab)
		if err != nil || got != c.want {
			t.Fatalf("case %d: enc %d err %v, want %d", i, got, err, c.want)
		}
		// The classified storage round-trips through the wire form and
		// back into an equivalent serving table.
		stride, _ := tierEncStride(got, 4)
		if wire := rows.AppendRowRange(nil, 0, 4); len(wire) != 4*stride {
			t.Fatalf("case %d: %d wire bytes for 4 rows of stride %d", i, len(wire), stride)
		}
		tab, err := tableOf(cloneRows(rows))
		if err != nil || tab.NumRows() != 4 || tab.Dim() != 4 {
			t.Fatalf("case %d: clone materialized as %v, %v", i, tab, err)
		}
	}
	if _, _, err := rowsOf(struct{ embedding.Table }{d}); err == nil {
		t.Fatal("a backend with no wire encoding classified")
	}
	if s, err := tierEncStride(TierEncFP32, 4); err != nil || s != 16 {
		t.Fatalf("fp32 stride %d err %v", s, err)
	}
	if s, err := tierEncStride(TierEncInt4, 5); err != nil || s != 4+3 {
		t.Fatalf("int4 stride %d err %v", s, err)
	}
	if _, err := tierEncStride(99, 4); err == nil {
		t.Fatal("unknown encoding has a stride")
	}
}
