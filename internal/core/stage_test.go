package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// readTableRows probes a held table's shape and reads all its rows in
// the cold tier's native encoding — the material for identity deltas.
func readTableRows(t *testing.T, sh *SparseShard, id, part int) *TableRows {
	t.Helper()
	shape := heldShape(t, sh, id, part)
	out, err := sh.Handle(trace.Context{}, MethodTableRead, encodeMsg(&TableRead{
		TableID: int32(id), PartIndex: int32(part), RowCount: shape.Rows,
	}))
	if err != nil {
		t.Fatal(err)
	}
	full, err := decodeMsg[TableRows](out)
	if err != nil {
		t.Fatal(err)
	}
	if full.Shape != shape {
		t.Fatalf("read reports shape %+v, list reported %+v", full.Shape, shape)
	}
	return full
}

// stageClone opens a clone stage of one held table in txn and puts rows
// (in the table's encoding) over it from rowStart.
func stageClone(t *testing.T, sh *SparseShard, txn uint64, shape TableShape, rowStart int32, rows []byte) {
	t.Helper()
	ctx := trace.Context{}
	if _, err := sh.Handle(ctx, MethodStageBegin, encodeMsg(&StageBegin{Txn: txn, Shape: shape, Base: StageClone})); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Handle(ctx, MethodStagePut, encodeMsg(&StagePut{
		Txn: txn, TableID: shape.TableID, PartIndex: shape.PartIndex, RowStart: rowStart, Rows: rows,
	})); err != nil {
		t.Fatal(err)
	}
}

// twoShards materializes the tiny model on two capacity-balanced shards
// (nil tier = plain fp32) and returns them with their plan.
func twoShards(t *testing.T, tier func(*model.Config) *TierConfig) (model.Config, *sharding.Plan, []*SparseShard) {
	t.Helper()
	cfg := tinyConfig()
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	var tc *TierConfig
	if tier != nil {
		tc = tier(&cfg)
	}
	recs := []*trace.Recorder{trace.NewRecorder("sparse1", 64), trace.NewRecorder("sparse2", 64)}
	shards, err := MaterializeShardsTiered(model.Build(cfg), plan, recs, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards[0].Tables) < 2 {
		t.Fatal("shard 1 holds fewer than two whole tables")
	}
	return cfg, plan, shards
}

// TestCloneIdentityDelta proves an identity delta (current rows
// republished over a clone) leaves every lookup bitwise unchanged across
// the epoch cutover, at every cold precision, with and without hot-row
// caches.
func TestCloneIdentityDelta(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prec    sharding.Precision
		cacheMB float64
	}{
		{"fp32", sharding.PrecisionFP32, 0},
		{"fp16", sharding.PrecisionFP16, 0},
		{"int8", sharding.PrecisionInt8, 0},
		{"fp16-cached", sharding.PrecisionFP16, 1},
		{"int8-cached", sharding.PrecisionInt8, 1}, // the budget leaves an int8 tier bare
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, plan, shards := twoShards(t, func(cfg *model.Config) *TierConfig {
				return tierConfigFor(cfg, tc.prec, tc.cacheMB)
			})
			sh := shards[0]
			id := plan.Shards[0].Tables[0]
			idx := []int32{0, int32(cfg.Tables[id].Rows - 1)}
			before := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, idx)
			epochBefore := sh.Epoch()

			rows := readTableRows(t, sh, id, 0)
			stageClone(t, sh, 7, rows.Shape, 0, rows.Rows)
			ack, err := commitTxn(handleCall(sh), 7)
			if err != nil {
				t.Fatal(err)
			}
			if ack.Version != 7 || ack.Tables != 1 {
				t.Fatalf("commit ack %+v, want version 7, 1 table", ack)
			}
			if sh.Epoch() <= epochBefore || ack.Epoch != sh.Epoch() {
				t.Fatalf("epoch did not advance: %d -> %d (ack %d)", epochBefore, sh.Epoch(), ack.Epoch)
			}
			if sh.ModelVersion() != 7 {
				t.Fatalf("model version %d, want 7", sh.ModelVersion())
			}
			after := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, idx)
			if !bitsEqual(before, after) {
				t.Fatal("identity delta changed lookup bytes")
			}
		})
	}
}

// TestCloneMutatesRows proves a real delta lands exactly: the touched
// row serves the new values, untouched rows serve old bytes.
func TestCloneMutatesRows(t *testing.T) {
	cfg, plan, shards := twoShards(t, nil)
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	dim := cfg.Tables[id].Dim
	lastRow := int32(cfg.Tables[id].Rows - 1)
	untouchedBefore := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{lastRow})

	// Publish new values for row 0 only.
	newRow := make([]float32, dim)
	for i := range newRow {
		newRow[i] = float32(i) + 0.5
	}
	payload, err := encodeDeltaRows(TierEncFP32, newRow, 1, dim)
	if err != nil {
		t.Fatal(err)
	}
	stageClone(t, sh, 3, heldShape(t, sh, id, 0), 0, payload)
	if _, err := commitTxn(handleCall(sh), 3); err != nil {
		t.Fatal(err)
	}

	got := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{0})
	if !bitsEqual(got, newRow) {
		t.Fatalf("row 0 after update = %v, want %v", got, newRow)
	}
	untouchedAfter := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{lastRow})
	if !bitsEqual(untouchedBefore, untouchedAfter) {
		t.Fatal("untouched row changed bytes")
	}
}

// TestCloneErrors covers the clone base's refusal paths — shape and
// encoding mismatches at begin, unheld tables — and abort dropping
// staged state without touching the model version.
func TestCloneErrors(t *testing.T) {
	_, plan, shards := twoShards(t, nil)
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	shape := heldShape(t, sh, id, 0)
	ctx := trace.Context{}
	beginClone := func(txn uint64, sh TableShape) []byte {
		return encodeMsg(&StageBegin{Txn: txn, Shape: sh, Base: StageClone})
	}

	wrongRows, wrongEnc, unheld := shape, shape, shape
	wrongRows.Rows++
	wrongEnc.Enc = TierEncFP16
	unheld.TableID = 9999
	for name, bad := range map[string]TableShape{"wrong row count": wrongRows, "wrong encoding": wrongEnc, "unheld table": unheld} {
		if _, err := sh.Handle(ctx, MethodStageBegin, beginClone(1, bad)); err == nil {
			t.Errorf("clone begin with %s accepted", name)
		}
	}
	if _, err := sh.Handle(ctx, MethodStageCommit, encodeMsg(&StageEnd{Txn: 1})); err == nil {
		t.Error("refused begins left a committable transaction")
	}

	// A begun-then-aborted version refuses puts and commit.
	if _, err := sh.Handle(ctx, MethodStageBegin, beginClone(2, shape)); err != nil {
		t.Fatal(err)
	}
	end := encodeMsg(&StageEnd{Txn: 2})
	if _, err := sh.Handle(ctx, MethodStageAbort, end); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Handle(ctx, MethodStagePut, encodeMsg(&StagePut{Txn: 2, TableID: int32(id), Rows: make([]byte, 4*shape.Dim)})); err == nil {
		t.Error("put after abort accepted")
	}
	if _, err := sh.Handle(ctx, MethodStageCommit, end); err == nil {
		t.Error("commit after abort accepted")
	}
	if sh.ModelVersion() != 0 {
		t.Fatalf("model version %d after aborted update, want 0", sh.ModelVersion())
	}
}

// TestCloneSkipsReleasedTable: a table migrated away between begin and
// commit must not be resurrected by the commit.
func TestCloneSkipsReleasedTable(t *testing.T) {
	_, plan, shards := twoShards(t, nil)
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	rows := readTableRows(t, sh, id, 0)
	stageClone(t, sh, 5, rows.Shape, 0, rows.Rows)
	held := sh.NumTables()
	sh.ReleaseTable(id, 0)
	ack, err := commitTxn(handleCall(sh), 5)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Tables != 0 {
		t.Fatalf("commit installed %d tables after release, want 0", ack.Tables)
	}
	if sh.NumTables() != held-1 {
		t.Fatalf("released table resurrected: %d tables, want %d", sh.NumTables(), held-1)
	}
	if sh.ModelVersion() != 5 {
		t.Fatalf("model version %d, want 5 (commit still acknowledges)", sh.ModelVersion())
	}
}

// TestCloneRefusesStaleBase: a clone whose table was replaced after
// begin (another commit, a migration landing) must be refused — its
// untouched rows are a copy of rows that are no longer current — and the
// refusal must install nothing, even the transaction's other tables.
func TestCloneRefusesStaleBase(t *testing.T) {
	cfg, plan, shards := twoShards(t, nil)
	sh := shards[0]
	stale, bystander := plan.Shards[0].Tables[0], plan.Shards[0].Tables[1]
	for _, id := range []int{stale, bystander} {
		rows := readTableRows(t, sh, id, 0)
		stageClone(t, sh, 9, rows.Shape, 0, make([]byte, len(rows.Rows))) // all-zero rows: visible if installed
	}
	// Version 8 lands on the first table while 9 is still staged.
	rows := readTableRows(t, sh, stale, 0)
	stageClone(t, sh, 8, rows.Shape, 0, rows.Rows)
	if _, err := commitTxn(handleCall(sh), 8); err != nil {
		t.Fatal(err)
	}
	before := map[int][]float32{}
	for _, id := range []int{stale, bystander} {
		before[id] = shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{0, 1})
	}
	epoch := sh.Epoch()

	if _, err := commitTxn(handleCall(sh), 9); err == nil || !strings.Contains(err.Error(), "replaced since") {
		t.Fatalf("commit over a stale clone: %v", err)
	}
	if sh.Epoch() != epoch || sh.ModelVersion() != 8 {
		t.Fatalf("refused commit moved epoch %d -> %d, version -> %d", epoch, sh.Epoch(), sh.ModelVersion())
	}
	for id, want := range before {
		if got := shardLookup(t, sh, cfg.Tables[id].Net, id, 0, 1, []int32{0, 1}); !bitsEqual(got, want) {
			t.Fatalf("refused commit changed table %d", id)
		}
	}
	if _, err := commitTxn(handleCall(sh), 9); err == nil || !strings.Contains(err.Error(), "without begin") {
		t.Fatalf("refused transaction still staged: %v", err)
	}
}

// TestTransactionsAreIsolated: a migration filling an empty stage and a
// publish overlaying a clone of the same key, at the same shard, in
// different transactions, never see each other's staging — each put
// lands in its own transaction's copy, and each commit installs exactly
// what its own driver staged.
func TestTransactionsAreIsolated(t *testing.T) {
	cfg, plan, shards := twoShards(t, nil)
	sh := shards[0]
	id := plan.Shards[0].Tables[0]
	net := cfg.Tables[id].Net
	current := readTableRows(t, sh, id, 0)
	shape := current.Shape
	stride, _ := tierEncStride(shape.Enc, shape.Dim)
	call := handleCall(sh)

	// Migration txn: an empty stage of the same key, filled with rows that
	// are the current ones except row 1 (marked "moved").
	moved := append([]byte(nil), current.Rows...)
	movedRow, _ := encodeDeltaRows(shape.Enc, filled(int(shape.Dim), 2), 1, int(shape.Dim))
	copy(moved[stride:], movedRow)
	const migTxn = anonTxn | 77
	if _, err := call(MethodStageBegin, encodeMsg(&StageBegin{Txn: migTxn, Shape: shape, Base: StageEmpty})); err != nil {
		t.Fatal(err)
	}
	put := func(txn uint64, rowStart int32, rows []byte) {
		t.Helper()
		if _, err := call(MethodStagePut, encodeMsg(&StagePut{Txn: txn, TableID: shape.TableID, RowStart: rowStart, Rows: rows})); err != nil {
			t.Fatal(err)
		}
	}
	put(migTxn, 0, moved[:stride]) // first half now, the rest after the publish staged

	// Publish txn 4 on the same key: row 0 becomes "fresh".
	freshRow, _ := encodeDeltaRows(shape.Enc, filled(int(shape.Dim), 1), 1, int(shape.Dim))
	stageClone(t, sh, 4, shape, 0, freshRow)
	put(migTxn, 1, moved[stride:])

	// Nothing is visible before either commit.
	if got := shardLookup(t, sh, net, id, 0, 1, []int32{0}); bitsEqual(got, filled(int(shape.Dim), 1)) {
		t.Fatal("staged rows visible before commit")
	}

	// The publish commits first: row 0 fresh, row 1 untouched (not "moved").
	if _, err := commitTxn(call, 4); err != nil {
		t.Fatal(err)
	}
	if got := shardLookup(t, sh, net, id, 0, 1, []int32{0}); !bitsEqual(got, filled(int(shape.Dim), 1)) {
		t.Fatalf("publish commit: row 0 = %v", got)
	}
	row1 := shardLookup(t, sh, net, id, 0, 1, []int32{1})
	if bitsEqual(row1, filled(int(shape.Dim), 2)) {
		t.Fatal("publish commit installed a row only the migration txn staged")
	}

	// The migration commits next: exactly its own rows — row 1 "moved",
	// row 0 back to what the migration read, not the publish's value
	// (which is why the control-plane drivers serialize: cluster.ctrlMu).
	ack, err := commitTxn(call, migTxn)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version != 4 {
		t.Fatalf("anonymous commit moved model version to %d", ack.Version)
	}
	after := readTableRows(t, sh, id, 0)
	if !bytes.Equal(after.Rows, moved) {
		t.Fatal("migration commit installed rows other than the ones its txn staged")
	}
}

// filled returns a dim-long row of one value.
func filled(dim int, v float32) []float32 {
	out := make([]float32, dim)
	for i := range out {
		out[i] = v
	}
	return out
}

// cloneNetParams deep-copies dense parameters so a swap test can mutate
// them independently of the model's originals.
func cloneNetParams(src []model.NetParams) []model.NetParams {
	out := make([]model.NetParams, len(src))
	cloneFC := func(p model.FCParams) model.FCParams {
		w := &tensor.Matrix{Rows: p.W.Rows, Cols: p.W.Cols, Data: append([]float32(nil), p.W.Data...)}
		return model.FCParams{W: w, B: append([]float32(nil), p.B...)}
	}
	for i, np := range src {
		out[i].Bottom = make([]model.FCParams, len(np.Bottom))
		for j, p := range np.Bottom {
			out[i].Bottom[j] = cloneFC(p)
		}
		out[i].Proj = cloneFC(np.Proj)
		out[i].Top = make([]model.FCParams, len(np.Top))
		for j, p := range np.Top {
			out[i].Top[j] = cloneFC(p)
		}
	}
	return out
}

// TestEngineSwapDense: an identical parameter set scores bitwise the
// same, a perturbed set changes scores, and a mis-shaped set is refused
// without disturbing the serving program.
func TestEngineSwapDense(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	req := FromWorkload(workload.NewGenerator(cfg, 2).Next())
	before, err := eng.Execute(trace.Context{TraceID: 1}, req)
	if err != nil {
		t.Fatal(err)
	}

	if err := eng.SwapDense(cloneNetParams(m.NetParams)); err != nil {
		t.Fatal(err)
	}
	same, err := eng.Execute(trace.Context{TraceID: 2}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(before, same) {
		t.Fatal("identical dense swap changed scores")
	}

	perturbed := cloneNetParams(m.NetParams)
	perturbed[0].Proj.W.Data[0] += 1
	if err := eng.SwapDense(perturbed); err != nil {
		t.Fatal(err)
	}
	changed, err := eng.Execute(trace.Context{TraceID: 3}, req)
	if err != nil {
		t.Fatal(err)
	}
	if bitsEqual(before, changed) {
		t.Fatal("perturbed dense swap left scores unchanged")
	}

	bad := cloneNetParams(m.NetParams)
	bad[0].Bottom = bad[0].Bottom[:len(bad[0].Bottom)-1]
	if err := eng.SwapDense(bad); err == nil {
		t.Fatal("mis-shaped dense swap accepted")
	}
	still, err := eng.Execute(trace.Context{TraceID: 4}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(changed, still) {
		t.Fatal("failed swap disturbed the serving program")
	}
}
