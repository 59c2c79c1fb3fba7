package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rpc"
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
	pub := &Publisher{
		Engine: eng, Rec: rec, Obs: reg, ChunkRows: 2,
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
		// stage.put runs under ChunkRows=2.
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
	f, _, pub, _ := publisherFixture(t)
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
