package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// migrationFixture materializes a 2-shard deployment of the tiny model
// with a live RPC server per shard, returning the shards, per-shard
// callers, and a sparse request exercising every table of shard 1.
type migrationFixture struct {
	m      *model.Model
	plan   *sharding.Plan
	shards []*SparseShard
	srvs   []*rpc.Server
	calls  []*rpc.Client
}

func newMigrationFixture(t *testing.T) *migrationFixture {
	t.Helper()
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 1<<14), trace.NewRecorder("sparse2", 1<<14)}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	f := &migrationFixture{m: m, plan: plan, shards: shards}
	for i, sh := range shards {
		srv, err := rpc.NewServer("127.0.0.1:0", sh, rpc.ServerConfig{Recorder: recs[i]})
		if err != nil {
			t.Fatal(err)
		}
		f.srvs = append(f.srvs, srv)
		cl, err := rpc.Dial(srv.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		f.calls = append(f.calls, cl)
	}
	t.Cleanup(func() {
		for _, c := range f.calls {
			c.Close()
		}
		for _, s := range f.srvs {
			s.Close()
		}
		for _, sh := range f.shards {
			sh.Close()
		}
	})
	return f
}

// runRequest builds a sparse request for every whole table of shard 1
// using a deterministic workload draw.
func (f *migrationFixture) runRequest(t *testing.T, seed int64) []byte {
	t.Helper()
	gen := workload.NewGenerator(f.m.Config, seed)
	wreq := gen.Next()
	req := &SparseRequest{Nets: []string{f.m.Config.Nets[0].Name}}
	for _, id := range f.plan.Shards[0].Tables {
		if f.m.Config.Tables[id].Net != req.Nets[0] {
			continue
		}
		req.Entries = append(req.Entries, SparseEntry{
			TableID: int32(id), NumParts: 1, Bags: hashBags(wreq.Bags[id], f.m.Config.Tables[id].Rows),
		})
	}
	if len(req.Entries) == 0 {
		t.Fatal("fixture: shard 1 holds no tables of net1")
	}
	return EncodeSparseRequest(req)
}

// hashBags maps raw workload IDs into table buckets (the main shard's
// Hash operator, inlined for the test).
func hashBags(bags []embedding.Bag, rows int) []embedding.Bag {
	out := make([]embedding.Bag, len(bags))
	for i, b := range bags {
		for _, idx := range b.Indices {
			out[i].Indices = append(out[i].Indices, idx%int32(rows))
		}
	}
	return out
}

// handleCall adapts a shard's Handle into the drivers' shardCall, so the
// tests drive the same client helpers the Migrator does with no server.
func handleCall(sh *SparseShard) shardCall {
	return func(method string, body []byte) ([]byte, error) {
		return sh.Handle(trace.Context{}, method, body)
	}
}

// heldShape probes a shard for one held table's shape.
func heldShape(t *testing.T, sh *SparseShard, id, part int) TableShape {
	t.Helper()
	held, err := listTables(handleCall(sh))
	if err != nil {
		t.Fatal(err)
	}
	shape, ok := findShape(held, id, part)
	if !ok {
		t.Fatalf("%s does not list table %d part %d", sh.ShardName, id, part)
	}
	return shape
}

// migrateTable drives the full wire protocol for one whole table from
// shard 1 to shard 2 in a transaction of its own — table.list probe,
// stage.begin(empty), table.read → stage.put in chunkRows-row chunks
// (pick a non-divisor of Rows), stage.commit — carrying the source's
// cold-tier encoding.
func (f *migrationFixture) migrateTable(t *testing.T, id, chunkRows int) {
	t.Helper()
	src, dst := handleCall(f.shards[0]), handleCall(f.shards[1])
	shape := heldShape(t, f.shards[0], id, 0)
	txn := anonTxn | uint64(id+1)
	moved, err := copyTable(src, dst, txn, shape, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	stride, _ := tierEncStride(shape.Enc, shape.Dim)
	if want := int64(shape.Rows) * int64(stride); moved != want {
		t.Fatalf("copied %d bytes of table %d, want %d", moved, id, want)
	}
	ack, err := commitTxn(dst, txn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Tables != 1 || ack.Version != 0 {
		t.Fatalf("commit ack %+v, want 1 table and no model version from an anonymous txn", ack)
	}
}

// TestMigrationMidCutoverIdentity walks one table through every cutover
// state — pre-migration, staged-but-uncommitted, committed with the
// source double-reading, and released with the source forwarding — and
// requires byte-identical pooled results throughout.
func TestMigrationMidCutoverIdentity(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{TraceID: 7}
	body := f.runRequest(t, 99)

	before, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}

	epoch0 := dst.Epoch()
	f.migrateTable(t, id, 7)
	if dst.Epoch() <= epoch0 {
		t.Fatal("commit must advance the destination epoch")
	}

	// Committed at the destination, source still authoritative for its
	// in-flight traffic: the retained copy double-reads identically.
	during, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, during) {
		t.Fatal("double-read during cutover diverged from pre-migration result")
	}

	// Source releases and forwards: lookups still land at the source
	// (stale routing) but are answered by the destination.
	srcEpoch := src.Epoch()
	src.BeginForward(id, 0, "sparse2", f.calls[1], true)
	if src.Epoch() <= srcEpoch {
		t.Fatal("forward must advance the source epoch")
	}
	after, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("forwarded lookup diverged from pre-migration result")
	}

	// The destination also serves the table directly (new routing).
	direct, err := dst.Handle(ctx, MethodSparseRun, body)
	if err == nil {
		_ = direct
	} else if !strings.Contains(err.Error(), "does not hold") {
		// Other tables of the request still live on the source, so a
		// direct full-request hit on the destination correctly rejects;
		// anything else is a protocol bug.
		t.Fatalf("unexpected destination error: %v", err)
	}
}

// TestMigrationForwardOverWire installs the forward via the RPC control
// plane (dial-by-address), as the Migrator does between processes.
func TestMigrationForwardOverWire(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{TraceID: 8}
	body := f.runRequest(t, 123)

	before, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	f.migrateTable(t, id, 7)
	out, err := src.Handle(ctx, MethodTableForward, encodeMsg(&TableForward{
		TableID: int32(id), Service: "sparse2", Addr: f.srvs[1].Addr(), Release: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := decodeMsg[CutoverAck](out); err != nil || ack.Epoch == 0 {
		t.Fatalf("forward ack = %v, %v", ack, err)
	}
	after, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("wire-forwarded lookup diverged from pre-migration result")
	}
}

// TestStageProtocolErrors pins the control plane's failure modes.
func TestStageProtocolErrors(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{}
	const txn = anonTxn | 1
	end := encodeMsg(&StageEnd{Txn: txn})

	if _, err := dst.Handle(ctx, MethodStagePut, encodeMsg(&StagePut{
		Txn: txn, TableID: int32(id), Rows: make([]byte, 16),
	})); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("put without begin: %v", err)
	}
	if _, err := dst.Handle(ctx, MethodStageCommit, end); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("commit without begin: %v", err)
	}
	if _, err := src.Handle(ctx, MethodTableRead, encodeMsg(&TableRead{
		TableID: int32(id), RowStart: 1 << 20, RowCount: 8,
	})); err == nil {
		t.Fatal("out-of-range read must fail")
	}
	if _, err := src.Handle(ctx, MethodTableRead, encodeMsg(&TableRead{TableID: 9999, RowCount: 1})); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("read of unheld table: %v", err)
	}
	if _, err := src.Handle(ctx, "sparse.nope", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("unknown method: %v", err)
	}

	// Abort drops staged storage: a commit after begin+abort must fail
	// exactly like a commit that was never begun, and aborting an
	// unknown transaction is a no-op.
	if _, err := dst.Handle(ctx, MethodStageAbort, end); err != nil {
		t.Fatalf("abort of unknown txn must be a no-op: %v", err)
	}
	shape := TableShape{TableID: int32(id), Rows: 8, Dim: 4}
	begin := encodeMsg(&StageBegin{Txn: txn, Shape: shape, Base: StageEmpty})
	if _, err := dst.Handle(ctx, MethodStageBegin, begin); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Handle(ctx, MethodStageAbort, end); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Handle(ctx, MethodStageCommit, end); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("commit after abort: %v", err)
	}

	// A put outside the staged shape is refused: rows past the end, and
	// payloads that are not whole rows of the staged encoding.
	if _, err := dst.Handle(ctx, MethodStageBegin, begin); err != nil {
		t.Fatal(err)
	}
	for name, put := range map[string]*StagePut{
		"past the end":  {Txn: txn, TableID: int32(id), RowStart: 7, Rows: make([]byte, 2*16)},
		"partial row":   {Txn: txn, TableID: int32(id), Rows: make([]byte, 15)},
		"other table":   {Txn: txn, TableID: int32(id) + 1, Rows: make([]byte, 16)},
		"other txn":     {Txn: txn + 1, TableID: int32(id), Rows: make([]byte, 16)},
		"whole + extra": {Txn: txn, TableID: int32(id), Rows: make([]byte, 9*16)},
	} {
		if _, err := dst.Handle(ctx, MethodStagePut, encodeMsg(put)); err == nil {
			t.Errorf("put %s accepted", name)
		}
	}
	if _, err := dst.Handle(ctx, MethodStageAbort, end); err != nil {
		t.Fatal(err)
	}
	if n := len(dst.staging); n != 0 {
		t.Fatalf("%d transactions still staged after abort", n)
	}
}

// TestSparseLoadAccounting checks the shard's mergeable summary: lookup
// counts match the request, service time lands on the pooled tables,
// and the wire collection round-trips with reset semantics. The bag
// counters — the fill ratio that sets the packed response's size — count
// the same request's bags as received.
func TestSparseLoadAccounting(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	reg := obs.NewRegistry()
	src.SetObs(reg)
	ctx := trace.Context{TraceID: 9}
	body := f.runRequest(t, 7)
	req, err := DecodeSparseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	wantLookups := make(map[sharding.TableLoadKey]int64)
	var total, bags, present int64
	for _, e := range req.Entries {
		n := int64(embedding.TotalLookups(e.Bags))
		wantLookups[sharding.TableLoadKey{TableID: int(e.TableID)}] += n
		total += n
		bags += int64(len(e.Bags))
		present += int64(embedding.Flatten(e.Bags).Present())
	}
	if total == 0 || present == bags {
		t.Fatalf("fixture request has %d lookups, %d of %d bags non-empty", total, present, bags)
	}

	if _, err := src.Handle(ctx, MethodSparseRun, body); err != nil {
		t.Fatal(err)
	}
	if got, gotPresent := reg.Counter("sparse1.sparse.bags").Load(), reg.Counter("sparse1.sparse.bags_present").Load(); got != bags || gotPresent != present {
		t.Errorf("sparse.bags = %d, sparse.bags_present = %d; want %d, %d", got, gotPresent, bags, present)
	}
	out, err := src.Handle(ctx, MethodSparseLoad, encodeMsg(&LoadRequest{Reset: true}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := DecodeLoadSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.TotalLookups(); got != total {
		t.Fatalf("summary lookups = %d, want %d", got, total)
	}
	for k, want := range wantLookups {
		got := sum.Tables[k]
		if got.Lookups != want {
			t.Errorf("table %v lookups = %d, want %d", k, got.Lookups, want)
		}
		if want > 0 && got.Calls != 1 {
			t.Errorf("table %v calls = %d, want 1", k, got.Calls)
		}
	}

	// Reset semantics: the next snapshot is empty.
	out, err = src.Handle(ctx, MethodSparseLoad, encodeMsg(&LoadRequest{}))
	if err != nil {
		t.Fatal(err)
	}
	sum, err = DecodeLoadSummary(out)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalLookups() != 0 {
		t.Fatalf("post-reset summary still holds %d lookups", sum.TotalLookups())
	}
}

// TestEngineRerouteSwapsPlan checks the atomic program swap: scores are
// identical before and after a reroute that relocates tables, and the
// engine reports the new plan.
func TestEngineRerouteSwapsPlan(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan := sharding.Singular(&cfg)
	rec := trace.NewRecorder("main", 1<<14)
	eng, err := NewEngine(m, plan, EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 5)
	req := FromWorkload(gen.Next())
	before, err := eng.Execute(trace.Context{TraceID: 1}, req)
	if err != nil {
		t.Fatal(err)
	}
	// Reroute singular -> singular (a fresh compile) must preserve
	// results; a distributed reroute without ClientFor must fail and
	// leave the old program serving.
	if err := eng.Reroute(sharding.Singular(&cfg)); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Execute(trace.Context{TraceID: 2}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32sBytes(before), float32sBytes(after)) {
		t.Fatal("reroute changed scores")
	}
	dist, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reroute(dist); err == nil {
		t.Fatal("distributed reroute without ClientFor must fail")
	}
	if eng.Plan().IsDistributed() {
		t.Fatal("failed reroute must not swap the program")
	}
	if _, err := eng.Execute(trace.Context{TraceID: 3}, req); err != nil {
		t.Fatalf("engine must keep serving after failed reroute: %v", err)
	}
}

func float32sBytes(xs []float32) []byte {
	out := EncodeRankingResponse(&RankingResponse{Scores: xs})
	return out
}
