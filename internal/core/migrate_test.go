package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
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
	shards, err := MaterializeShardsTiered(m, plan, recs, nil)
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
	shape, ok := findShape(held, sharding.TableLoadKey{TableID: id, PartIndex: part})
	if !ok {
		t.Fatalf("%s does not list table %d part %d", sh.ShardName, id, part)
	}
	return shape
}

// lowerChunkRows sets chunkRows to n for the rest of the test, so a
// small table streams in several chunks.
func lowerChunkRows(t *testing.T, n int) {
	t.Helper()
	old := chunkRows
	chunkRows = n
	t.Cleanup(func() { chunkRows = old })
}

// migrateTable drives the full wire protocol for one whole table from
// shard 1 to shard 2 in a transaction of its own — table.list probe,
// stage.begin(empty), table.read → stage.put in rows-row chunks (pick a
// non-divisor of Rows), stage.commit — carrying the source's cold-tier
// encoding.
func (f *migrationFixture) migrateTable(t *testing.T, id, rows int) {
	t.Helper()
	lowerChunkRows(t, rows)
	src, dst := handleCall(f.shards[0]), handleCall(f.shards[1])
	shape := heldShape(t, f.shards[0], id, 0)
	txn := anonTxn | uint64(id+1)
	moved, err := copyTable(src, dst, txn, shape)
	if err != nil {
		t.Fatal(err)
	}
	stride, _, _ := rowLayout(shape.Enc, int(shape.Dim))
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

// tableRequest builds a sparse request for one whole table from a
// deterministic workload draw.
func (f *migrationFixture) tableRequest(t *testing.T, seed int64, id int) []byte {
	t.Helper()
	spec := f.m.Config.Tables[id]
	bags := hashBags(workload.NewGenerator(f.m.Config, seed).Next().Bags[id], spec.Rows)
	return EncodeSparseRequest(&SparseRequest{Nets: []string{spec.Net}, Entries: []SparseEntry{{TableID: int32(id), NumParts: 1, Bags: bags}}})
}

// releaseTable sends table.release for a whole table through shard, as
// the Migrator does, and requires the ack to report the dropped copy at
// the shard's advanced epoch.
func releaseTable(t *testing.T, sh *SparseShard, shard shardCall, id int) {
	t.Helper()
	epoch := sh.Epoch()
	out, err := shard(MethodTableRelease, encodeMsg(&TableRelease{TableID: int32(id)}))
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := decodeMsg[CutoverAck](out); err != nil || ack.Tables != 1 || ack.Epoch <= epoch || ack.Epoch != sh.Epoch() {
		t.Fatalf("release ack %+v (err %v), want one table dropped past epoch %d", ack, err, epoch)
	}
}

// requireMoved checks the end state of a migration: the source refuses
// body, a request for the moved table, and the destination answers it
// with want, the source's answer from before the release.
func requireMoved(t *testing.T, src, dst *SparseShard, body, want []byte) {
	t.Helper()
	if _, err := src.Handle(trace.Context{}, MethodSparseRun, body); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("source after release: %v, want a refusal", err)
	}
	got, err := dst.Handle(trace.Context{}, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the destination answers the moved table differently from the source before release")
	}
}

// TestMigrationMidCutoverIdentity walks one table through every cutover
// state — pre-migration, committed at the destination with the source
// still serving its retained copy, and released at the source — and
// requires byte-identical pooled results throughout.
func TestMigrationMidCutoverIdentity(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	ctx := trace.Context{TraceID: 7}
	body, moved := f.runRequest(t, 99), f.tableRequest(t, 99, id)

	before, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	movedBefore, err := src.Handle(ctx, MethodSparseRun, moved)
	if err != nil {
		t.Fatal(err)
	}

	epoch0 := dst.Epoch()
	f.migrateTable(t, id, 7)
	if dst.Epoch() <= epoch0 {
		t.Fatal("commit must advance the destination epoch")
	}

	// Committed at the destination, the source still serves requests
	// routed under the old plan from its retained copy, identically.
	during, err := src.Handle(ctx, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, during) {
		t.Fatal("the retained copy's answer diverged from the pre-migration result")
	}

	releaseTable(t, src, handleCall(src), id)
	requireMoved(t, src, dst, moved, movedBefore)
}

// TestMigrationForwardOverWire moves a table the way the Migrator does
// between processes: every step of the copy, the commit and the release
// travels a real rpc connection to each shard. (The name dates from when
// the cutover installed a forward at the source; that step is now
// table.release.) The destination then answers the moved table as the
// source did, and a second release finds nothing to drop.
func TestMigrationForwardOverWire(t *testing.T) {
	f := newMigrationFixture(t)
	src, dst := f.shards[0], f.shards[1]
	id := f.plan.Shards[0].Tables[0]
	body := f.tableRequest(t, 123, id)
	before, err := src.Handle(trace.Context{TraceID: 8}, MethodSparseRun, body)
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder("main", 64)
	wire := ShardEndpoint{Service: src.ShardName, Caller: f.calls[0]}.call(rec)
	dstWire := ShardEndpoint{Service: dst.ShardName, Caller: f.calls[1]}.call(rec)
	shape := heldShape(t, src, id, 0)
	txn := anonTxn | uint64(id+1)
	lowerChunkRows(t, 7)
	if _, err := copyTable(wire, dstWire, txn, shape); err != nil {
		t.Fatal(err)
	}
	if _, err := commitTxn(dstWire, txn); err != nil {
		t.Fatal(err)
	}
	releaseTable(t, src, wire, id)
	requireMoved(t, src, dst, body, before)

	epoch := src.Epoch()
	out, err := wire(MethodTableRelease, encodeMsg(&TableRelease{TableID: int32(id)}))
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := decodeMsg[CutoverAck](out); err != nil || ack.Tables != 0 || src.Epoch() != epoch {
		t.Fatalf("second release ack %+v (err %v), epoch %d -> %d: want a no-op", ack, err, epoch, src.Epoch())
	}
}

// rebalanceFixture is an engine over four in-process shards whose calls
// to sparse1 can be held, the Migrator over the same shards, and a stream
// skewed onto sparse1's tables — measured load a rebalance moves tables
// off sparse1 for — with each request's scores under the first plan.
type rebalanceFixture struct {
	*shardedFixture
	mg      *Migrator
	hold    *recordingCaller
	reqs    []*RankingRequest
	control [][]float32
}

func newRebalanceFixture(t *testing.T) *rebalanceFixture {
	t.Helper()
	cfg := smallModel("DRM1")
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &rebalanceFixture{}
	f.shardedFixture = newShardedFixture(t, m, plan, EngineConfig{}, func(svc string, c rpc.Caller) rpc.Caller {
		if svc != "sparse1" {
			return c
		}
		f.hold = &recordingCaller{Caller: c}
		return f.hold
	})
	f.mg = &Migrator{Engine: f.eng, Rec: trace.NewRecorder("control", 1<<10), Shards: make(map[int]ShardEndpoint)}
	for i, sh := range f.shards {
		f.mg.Shards[i+1] = ShardEndpoint{Service: sh.ShardName, Caller: &localCaller{h: sh}}
	}
	skew := make(map[int]float64)
	for _, id := range plan.Shards[0].Tables {
		skew[id] = 6
	}
	for _, w := range workload.ApplySkew(workload.NewGenerator(cfg, 23).GenerateBatch(12), skew) {
		req := FromWorkload(w)
		scores, err := f.eng.Execute(trace.Context{TraceID: 1}, req)
		if err != nil {
			t.Fatal(err)
		}
		f.reqs, f.control = append(f.reqs, req), append(f.control, scores)
	}
	return f
}

// listed is every shard's table.list answer, as a set per shard.
func (f *rebalanceFixture) listed(t *testing.T) []map[sharding.TableLoadKey]bool {
	t.Helper()
	out := make([]map[sharding.TableLoadKey]bool, len(f.shards))
	for i, sh := range f.shards {
		shapes, err := listTables(handleCall(sh))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = make(map[sharding.TableLoadKey]bool)
		for _, shape := range shapes {
			out[i][shape.key()] = true
		}
	}
	return out
}

// requireStillListed fails if a shard stopped listing a table it listed
// in before.
func requireStillListed(t *testing.T, before, now []map[sharding.TableLoadKey]bool) {
	t.Helper()
	for i := range before {
		for key := range before[i] {
			if !now[i][key] {
				t.Fatalf("sparse%d dropped table %d part %d while a request routed under the old plan was running", i+1, key.TableID, key.PartIndex)
			}
		}
	}
}

// holdRequest starts f.reqs[0] and returns once its call to sparse1 is
// held, with the channels that release it and deliver its outcome.
func (f *rebalanceFixture) holdRequest() (release chan struct{}, done chan []float32, failed chan error) {
	release, seen := make(chan struct{}), make(chan struct{})
	f.hold.gate, f.hold.seen = release, seen
	done, failed = make(chan []float32, 1), make(chan error, 1)
	go func() {
		scores, err := f.eng.Execute(trace.Context{TraceID: 2}, f.reqs[0])
		if err != nil {
			failed <- err
			return
		}
		done <- scores
	}()
	<-seen
	return release, done, failed
}

// heldScores releases a held request and requires the control's scores.
func (f *rebalanceFixture) heldScores(t *testing.T, release chan struct{}, done chan []float32, failed chan error) {
	t.Helper()
	close(release)
	select {
	case err := <-failed:
		t.Fatalf("the held request failed: %v", err)
	case got := <-done:
		if !sameBits(got, f.control[0]) {
			t.Fatal("the held request's scores differ from the control's")
		}
	}
}

// TestRebalanceWaitsForOldPlanRequest holds a request mid-call under the
// old plan across a whole Migrator.Rebalance: the pass commits its moves
// and swaps the plan, then waits; every source still lists every table it
// held until the request returns, with the control's scores. Only then
// are the moved tables released, and the stream scores the same under
// the new plan.
func TestRebalanceWaitsForOldPlanRequest(t *testing.T) {
	f := newRebalanceFixture(t)
	before, planA := f.listed(t), f.eng.Plan()
	release, done, failed := f.holdRequest()

	var report *RebalanceReport
	rebalanced := make(chan error, 1)
	go func() {
		var err error
		report, err = f.mg.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
		rebalanced <- err
	}()
	// Once the plan is swapped, give a pass that did not wait time enough
	// to release its sources.
	for f.eng.Plan() == planA {
		select {
		case err := <-rebalanced:
			t.Fatalf("Rebalance returned (%v) without swapping the plan", err)
		default:
			runtime.Gosched()
		}
	}
	select {
	case err := <-rebalanced:
		t.Fatalf("Rebalance returned (%v) while a request routed under the old plan was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	requireStillListed(t, before, f.listed(t))

	f.heldScores(t, release, done, failed)
	if err := <-rebalanced; err != nil {
		t.Fatal(err)
	}
	if !report.Moved() {
		t.Fatal("a 6x skew onto sparse1 moved nothing")
	}
	after := f.listed(t)
	for _, mv := range report.Plan.Moves {
		key := mv.Key()
		if after[mv.From-1][key] || !after[mv.To-1][key] {
			t.Errorf("after %v: sparse%d lists it %v, sparse%d %v", mv, mv.From, after[mv.From-1][key], mv.To, after[mv.To-1][key])
		}
	}
	for i, req := range f.reqs {
		got, err := f.eng.Execute(trace.Context{TraceID: 3}, req)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, f.control[i]) {
			t.Fatalf("request %d scores differently under the new plan", i)
		}
	}
}

// TestRebalanceStuckRequestReleasesNothing: a request routed under the
// old plan that outlasts the drain bound makes Rebalance fail, and every
// source keeps its copy — so the request, once it moves again, is still
// answered, with the control's scores.
func TestRebalanceStuckRequestReleasesNothing(t *testing.T) {
	defer func(b time.Duration) { drainBound = b }(drainBound)
	drainBound = 30 * time.Millisecond
	f := newRebalanceFixture(t)
	before := f.listed(t)
	release, done, failed := f.holdRequest()
	if _, err := f.mg.Rebalance(sharding.RebalanceOptions{MoveBudget: 6}); err == nil || !strings.Contains(err.Error(), "still running") {
		t.Fatalf("Rebalance with a stuck request: %v, want a drain error", err)
	}
	requireStillListed(t, before, f.listed(t))
	f.heldScores(t, release, done, failed)
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
