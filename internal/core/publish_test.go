package core

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
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

// publisherFixture wires a Publisher over the migration fixture's live
// 2-shard RPC deployment plus a distributed engine routed through the
// same connections.
func publisherFixture(t *testing.T) (*migrationFixture, *Engine, *Publisher, *obs.Registry) {
	t.Helper()
	f := newMigrationFixture(t)
	rec := trace.NewRecorder("main", 1<<14)
	eng, err := NewEngine(f.m, f.plan, EngineConfig{Recorder: rec, ClientFor: func(service string) (rpc.Caller, error) {
		for i, sh := range f.shards {
			if sh.ShardName == service {
				return f.calls[i], nil
			}
		}
		return nil, fmt.Errorf("no client for %s", service)
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lowerChunkRows(t, 2)
	pub := &Publisher{
		Engine: eng, Rec: rec, Obs: reg,
		Shards: map[int][]ShardEndpoint{
			1: {{Service: f.shards[0].ShardName, Addr: f.srvs[0].Addr(), Caller: f.calls[0]}},
			2: {{Service: f.shards[1].ShardName, Addr: f.srvs[1].Addr(), Caller: f.calls[1]}},
		},
	}
	return f, eng, pub, reg
}

// modelRows reads logical rows out of the model's fp32 tables — delta
// payloads are always fp32, whatever the shards' encoding.
func modelRows(m *model.Model, id int, rows []int32) []float32 {
	tab := m.Tables[id]
	out := make([]float32, 0, len(rows)*tab.Dim())
	buf := make([]float32, tab.Dim())
	for _, r := range rows {
		for i := range buf {
			buf[i] = 0
		}
		tab.AccumulateRow(buf, int(r))
		out = append(out, buf...)
	}
	return out
}

// TestPublisherStreamsAndCommits drives the full publish path against
// live shard servers: identity deltas for one table per shard, chunked
// at 2 rows to force run splitting, must commit on both endpoints,
// advance their epochs and model versions, move the publish gauges, and
// leave engine scores byte-identical.
func TestPublisherStreamsAndCommits(t *testing.T) {
	f, eng, pub, reg := publisherFixture(t)

	gen := workload.NewGenerator(f.m.Config, 7)
	req := FromWorkload(gen.Next())
	before, err := eng.Execute(trace.Context{TraceID: 1}, req)
	if err != nil {
		t.Fatal(err)
	}

	ds := &DeltaSet{Version: 3}
	for si := range f.plan.Shards {
		id := f.plan.Shards[si].Tables[0]
		// Non-consecutive logical rows split the stream into several
		// stage.put runs under chunkRows=2.
		rows := []int32{0, 1, 2, 4, int32(f.m.Config.Tables[id].Rows - 1)}
		ds.Tables = append(ds.Tables, TableDelta{TableID: id, Rows: rows, Data: modelRows(f.m, id, rows)})
	}
	report, err := pub.Publish(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Events) != 2 {
		t.Fatalf("publish hit %d endpoints, want 2: %v", len(report.Events), report)
	}
	if report.RowsSent != 10 || report.Bytes == 0 {
		t.Fatalf("report rows/bytes off: %v", report)
	}
	if report.DenseSwapped {
		t.Fatalf("no dense payload, but DenseSwapped: %v", report)
	}
	if !strings.Contains(report.String(), "publish v3: 2 endpoints") {
		t.Fatalf("report string: %q", report.String())
	}
	for i, ev := range report.Events {
		if ev.Version != 3 || ev.Tables != 1 || ev.RowsSent != 5 || ev.Epoch == 0 {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
	for _, sh := range f.shards {
		if sh.ModelVersion() != 3 {
			t.Fatalf("%s model version %d, want 3", sh.ShardName, sh.ModelVersion())
		}
	}
	snap := reg.Snapshot()
	if snap.Gauge("publish.version") != 3 || snap.Counter("publish.count") != 1 || snap.Counter("publish.rows") != 10 {
		t.Fatalf("publish gauges: version=%d count=%d rows=%d",
			snap.Gauge("publish.version"), snap.Counter("publish.count"), snap.Counter("publish.rows"))
	}

	after, err := eng.Execute(trace.Context{TraceID: 2}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32sBytes(before), float32sBytes(after)) {
		t.Fatal("identity publish changed scores")
	}

	// A dense swap with the engine's own parameters rides version 4 and
	// must also leave scores untouched.
	dense := &DeltaSet{Version: 4, Dense: f.m.NetParams}
	report, err = pub.Publish(dense)
	if err != nil {
		t.Fatal(err)
	}
	if !report.DenseSwapped || len(report.Events) != 0 {
		t.Fatalf("dense-only publish: %v", report)
	}
	swapped, err := eng.Execute(trace.Context{TraceID: 3}, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32sBytes(before), float32sBytes(swapped)) {
		t.Fatal("identity dense swap changed scores")
	}
}

// TestPublisherRejectsMalformedDeltas covers the routing and shape
// guards: unplaced tables, ragged payloads, out-of-range rows, and dim
// mismatches must all fail without committing a version.
func TestPublisherRejectsMalformedDeltas(t *testing.T) {
	f, eng, pub, _ := publisherFixture(t)
	id := f.plan.Shards[0].Tables[0]
	dim := f.m.Tables[id].Dim()
	cases := []struct {
		name string
		ds   *DeltaSet
		want string
	}{
		{"unplaced table", &DeltaSet{Version: 9, Tables: []TableDelta{
			{TableID: 9999, Rows: []int32{0}, Data: make([]float32, dim)},
		}}, "not placed"},
		{"ragged payload", &DeltaSet{Version: 9, Tables: []TableDelta{
			{TableID: id, Rows: []int32{0, 1}, Data: make([]float32, dim+1)},
		}}, "values for"},
		{"row out of range", &DeltaSet{Version: 9, Tables: []TableDelta{
			{TableID: id, Rows: []int32{int32(f.m.Config.Tables[id].Rows)}, Data: make([]float32, dim)},
		}}, "outside"},
		{"dim mismatch", &DeltaSet{Version: 9, Tables: []TableDelta{
			{TableID: id, Rows: []int32{0}, Data: make([]float32, dim*2)},
		}}, "dim"},
		{"version outside the model-version id space", &DeltaSet{Version: anonTxn, Tables: []TableDelta{
			{TableID: id, Rows: []int32{0}, Data: make([]float32, dim)},
		}}, "id space"},
	}
	for _, tc := range cases {
		if _, err := pub.Publish(tc.ds); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	// Split the table across both shards: under modulus routing a
	// negative row matches no part, and must be refused rather than
	// dropped while the rest of the delta commits.
	split := *f.plan
	split.Shards = slices.Clone(f.plan.Shards)
	split.Shards[0].Tables = slices.DeleteFunc(slices.Clone(split.Shards[0].Tables), func(t int) bool { return t == id })
	for p := range split.Shards {
		split.Shards[p].Parts = append(slices.Clone(split.Shards[p].Parts), sharding.PartRef{TableID: id, PartIndex: p, NumParts: 2})
	}
	if err := eng.Reroute(&split); err != nil {
		t.Fatal(err)
	}
	ds := &DeltaSet{Version: 9, Tables: []TableDelta{{TableID: id, Rows: []int32{-3, 4}, Data: make([]float32, 2*dim)}}}
	if _, err := pub.Publish(ds); err == nil || !strings.Contains(err.Error(), "row -3 outside") {
		t.Fatalf("negative row on a partitioned plan: got %v, want row -3 outside", err)
	}
	for _, sh := range f.shards {
		if sh.ModelVersion() != 0 {
			t.Fatalf("%s committed version %d from a rejected delta", sh.ShardName, sh.ModelVersion())
		}
		sh.mu.RLock()
		open := len(sh.staging)
		sh.mu.RUnlock()
		if open != 0 {
			t.Fatalf("%s still stages %d transactions from rejected deltas", sh.ShardName, open)
		}
	}
}

// TestIdentityDeltaDrawsServedRows: IdentityDelta, drawing from the config
// alone, republishes exactly the rows model.Build's tables hold, for every
// table, for windows that wrap past a table's last row and for a version
// whose window hash overflows an int.
func TestIdentityDeltaDrawsServedRows(t *testing.T) {
	cfg := tinyConfig() // 32 rows a table
	m := model.Build(cfg)
	wrapped := false
	for _, tc := range []struct {
		version uint64
		rowsPer int
	}{
		{1, 4}, {3, 16}, {5, 0}, {2, 40},
		// Hashes past 2^63: the second's is not a multiple of 32, so read
		// as an int it leaves a negative remainder.
		{4_000_000_000, 4}, {4_000_000_001, 4},
	} {
		ds := IdentityDelta(&cfg, nil, tc.version, tc.rowsPer)
		if ds.Version != tc.version || len(ds.Tables) != len(cfg.Tables) {
			t.Fatalf("v%d: version %d, %d tables, want %d", tc.version, ds.Version, len(ds.Tables), len(cfg.Tables))
		}
		for k, d := range ds.Tables {
			dense := m.Tables[d.TableID].(*embedding.Dense)
			want := min(cmp.Or(tc.rowsPer, 16), dense.RowsN)
			if d.TableID != k || len(d.Rows) != want {
				t.Fatalf("v%d delta %d: table %d with %d rows, want table %d with %d", tc.version, k, d.TableID, len(d.Rows), k, want)
			}
			for j, r := range d.Rows {
				wrapped = wrapped || j > 0 && r < d.Rows[j-1]
				if !sameBits(d.Data[j*dense.DimN:(j+1)*dense.DimN], dense.Row(int(r))) {
					t.Fatalf("v%d table %d row %d: delta holds %v, model %v", tc.version, d.TableID, r, d.Data[j*dense.DimN:(j+1)*dense.DimN], dense.Row(int(r)))
				}
			}
		}
	}
	if !wrapped {
		t.Error("no window wraps; the cases no longer cover a wrap")
	}
	if ds := IdentityDelta(&cfg, []int{7}, 9, 2); len(ds.Tables) != 1 || ds.Tables[0].TableID != 7 {
		t.Errorf("a named table: %+v", ds.Tables)
	}
	runtime.KeepAlive(m)
}
