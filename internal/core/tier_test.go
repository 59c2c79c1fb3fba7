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

// localCaller adapts a Handler into an in-process rpc.Caller so shard
// calls in these tests need no TCP server.
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

// uniformTiers plans every table of cfg at prec. The tiny test models'
// tables all sit below PlanTiers' 16 KiB floor, so tests that tier them
// build the plan directly.
func uniformTiers(cfg *model.Config, prec sharding.Precision) *sharding.TierPlan {
	tp := &sharding.TierPlan{Precisions: make(map[int]sharding.Precision, len(cfg.Tables))}
	for _, t := range cfg.Tables {
		tp.Precisions[t.ID] = prec
	}
	return tp
}

// tierConfigFor builds a shard tier config that stores every table of
// the tiny model at the given precision.
func tierConfigFor(cfg *model.Config, prec sharding.Precision, cacheMB float64) *TierConfig {
	return &TierConfig{CacheMB: cacheMB, Plan: uniformTiers(cfg, prec)}
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
// a committed cached copy starts with a cold cache, the source serves
// from its retained copy until it releases it, and the destination then
// answers as the source did.
func TestTieredMigrationIdentity(t *testing.T) {
	for _, prec := range []sharding.Precision{sharding.PrecisionFP32, sharding.PrecisionFP16, sharding.PrecisionInt8} {
		t.Run(string(prec), func(t *testing.T) {
			f := newTieredMigrationFixture(t, prec, 1)
			src, dst := f.shards[0], f.shards[1]
			id := f.plan.Shards[0].Tables[0]
			ctx := trace.Context{TraceID: 11}
			body, moved := f.runRequest(t, 42), f.tableRequest(t, 42, id)

			// Warm the source cache so migration must cope with live
			// cached state.
			before, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			movedBefore, err := src.Handle(ctx, MethodSparseRun, moved)
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

			// Until released, the source still serves identically.
			during, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, during) {
				t.Fatal("the retained copy's answer diverged during cutover")
			}

			// Released at the source; the destination answers as it did.
			releaseTable(t, src, handleCall(src), id)
			requireMoved(t, src, dst, moved, movedBefore)
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
	plain, err := MaterializeShardsTiered(m, plan, recs(), nil)
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

// fp16Tables is the tiny model's tables in fp16, as an fp16 shard image
// holds them.
func fp16Tables(m *model.Model) []embedding.Table {
	out := make([]embedding.Table, len(m.Tables))
	for id, tab := range m.Tables {
		out[id] = tab.(*embedding.Dense).ToFP16()
	}
	return out
}

// TestSetTierWrapsImportedTables covers the shard-file path: import fp16
// tables, then SetTier keeps their encoding and fronts them with caches.
// It never encodes: fp32 tables under the same plan are refused, and the
// shard stays untiered.
func TestSetTierWrapsImportedTables(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	tier := tierConfigFor(&cfg, sharding.PrecisionFP16, 0.01)
	plain := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	for id, tab := range m.Tables {
		plain.InstallTable(id, 0, tab)
	}
	if err := plain.SetTier(tier); err == nil || !strings.Contains(err.Error(), "tier plan says") {
		t.Fatalf("fp32 tables under an fp16 plan: err %v", err)
	}
	if st := plain.TierSnapshot(); st.FP32 != len(m.Tables) || st.CacheCapBytes != 0 {
		t.Fatalf("a refused SetTier changed the shard: %+v", st)
	}

	sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
	for id, tab := range fp16Tables(m) {
		sh.InstallTable(id, 0, tab)
	}
	before := sh.Bytes()
	if err := sh.SetTier(tier); err != nil {
		t.Fatal(err)
	}
	st := sh.TierSnapshot()
	if st.FP16 != len(m.Tables) || st.ColdBytes != before {
		t.Fatalf("SetTier changed the imported fp16 tables: %+v, %d bytes before", st, before)
	}
	if st.CacheCapBytes == 0 {
		t.Fatal("cache budget not apportioned")
	}
	budgetMB := 0.01
	if budget := int64(budgetMB * float64(1<<20)); st.CacheCapBytes > budget {
		t.Fatalf("cache backing %d exceeds the %d-byte budget", st.CacheCapBytes, budget)
	}
}

// TestRetierDeterministic pins the cache-budget split: building the same
// shard must size every cache identically run after run, not drift with
// map iteration order of the table set, and each table's share follows
// its cold-tier bytes.
func TestRetierDeterministic(t *testing.T) {
	cfg := tinyConfig()
	build := func() map[int]int {
		m := model.Build(cfg)
		sh := NewSparseShard("sparse1", trace.NewRecorder("sparse1", 1<<14))
		sh.SetTier(tierConfigFor(&cfg, sharding.PrecisionFP16, 0.002))
		for id, tab := range fp16Tables(m) {
			if err := sh.InstallTable(id, 0, tab); err != nil {
				t.Fatal(err)
			}
		}
		caps := make(map[int]int)
		var total int64
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		for key, tab := range sh.tables {
			if tt, ok := tab.(*embedding.TieredTable); ok {
				caps[key.TableID] = tt.Capacity()
				total += tt.Cold().Bytes()
			}
		}
		// The bytes split: a table's rows are its share of the budget
		// by cold-tier bytes, in its rows' fp32 width, capped at its rows.
		// Capacity floors that to a power of two, the cache's slot count.
		for key, tab := range sh.tables {
			tt := tab.(*embedding.TieredTable)
			rows := int(0.002 * (1 << 20) * float64(tt.Cold().Bytes()) / float64(total) / float64(tt.Dim()*4))
			want := embedding.NewTiered(tt.Cold(), min(rows, tt.NumRows())).Capacity()
			if caps[key.TableID] != want {
				t.Errorf("table %d capacity %d, its bytes share gives %d", key.TableID, caps[key.TableID], want)
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

// TestStagedTableErrors covers the staging guards: unknown encodings
// (3 among them: no shard table is int4), and rows whose bytes are not whole
// rows of the staged encoding — the form an encoding mismatch between
// driver and stage takes now that rows travel as bytes.
func TestStagedTableErrors(t *testing.T) {
	for _, enc := range []int32{3, 99, -1} {
		if _, err := newRowStore(TableShape{Rows: 4, Dim: 4, Enc: enc}); err == nil {
			t.Fatalf("unknown encoding %d accepted", enc)
		}
	}
	for _, enc := range []int32{TierEncFP32, TierEncFP16, TierEncInt8} {
		st, err := newRowStore(TableShape{Rows: 4, Dim: 6, Enc: enc})
		if err != nil {
			t.Fatal(err)
		}
		stride, _, _ := rowLayout(enc, 6)
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
	// Encoding 3 is refused at decode, on stage.begin and table.rows alike.
	int4 := TableShape{TableID: int32(id), Rows: 4, Dim: 3, Enc: 3}
	_, err = dst.Handle(ctx, MethodStageBegin, encodeMsg(&StageBegin{Txn: txn, Shape: int4}))
	if err == nil || !strings.Contains(err.Error(), "unknown cold-tier encoding 3") {
		t.Fatalf("stage.begin in encoding 3 accepted (err %v)", err)
	}
	if _, err := decodeMsg[TableRows](encodeMsg(&TableRows{Shape: int4, Rows: make([]byte, 6)})); err == nil {
		t.Fatal("table.rows in encoding 3 accepted")
	}
}

// TestTableEncClassification covers the wire encoding classifier and
// the row layouts.
func TestTableEncClassification(t *testing.T) {
	d := embedding.NewDense(4, 4)
	cases := []struct {
		tab  embedding.Table
		want int32
	}{
		{d, TierEncFP32},
		{d.ToFP16(), TierEncFP16},
		{d.Quantize(quant.Bits8), TierEncInt8},
		{embedding.NewTiered(d.Quantize(quant.Bits8), 2), TierEncInt8},
	}
	for i, c := range cases {
		rows, got, err := rowsOf(c.tab)
		if err != nil || got != c.want {
			t.Fatalf("case %d: enc %d err %v, want %d", i, got, err, c.want)
		}
		// The classified storage streams whole rows of its layout and
		// clones into an equivalent serving table.
		stride, _, _ := rowLayout(got, 4)
		if wire := rows.AppendRowRange(nil, 0, 4); len(wire) != 4*stride {
			t.Fatalf("case %d: %d wire bytes for 4 rows of stride %d", i, len(wire), stride)
		}
		if cl := cloneRows(rows); cl.NumRows() != 4 || cl.Dim() != 4 {
			t.Fatalf("case %d: clone is %dx%d", i, cl.NumRows(), cl.Dim())
		}
	}
	for _, tab := range []embedding.Table{struct{ embedding.Table }{d}, d.Quantize(quant.Bits4)} {
		if _, _, err := rowsOf(tab); err == nil {
			t.Fatalf("%T with no wire encoding classified", tab)
		}
	}
	for _, c := range []struct{ enc, dim, stride, hdr int32 }{
		{TierEncFP32, 4, 16, 0}, {TierEncFP16, 5, 10, 0}, {TierEncInt8, 5, 4 + 5, 4},
	} {
		if stride, hdr, err := rowLayout(c.enc, int(c.dim)); err != nil || stride != int(c.stride) || hdr != int(c.hdr) {
			t.Fatalf("encoding %d at dim %d: stride %d hdr %d err %v", c.enc, c.dim, stride, hdr, err)
		}
	}
	for _, enc := range []int32{3, 99, -1} {
		if _, _, err := rowLayout(enc, 4); err == nil {
			t.Fatalf("unknown encoding %d has a layout", enc)
		}
	}
}
