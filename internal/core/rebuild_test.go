package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
)

func TestTableListRoundTrip(t *testing.T) {
	in := &TableList{Tables: []TableShape{
		{TableID: 3, PartIndex: 0, Rows: 128, Dim: 16, Enc: TierEncFP32},
		{TableID: 7, PartIndex: 2, Rows: 64, Dim: 32, Enc: TierEncInt8},
	}}
	out, err := decodeMsg[TableList](encodeMsg(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != len(in.Tables) {
		t.Fatalf("entries = %d, want %d", len(out.Tables), len(in.Tables))
	}
	for i := range in.Tables {
		if out.Tables[i] != in.Tables[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out.Tables[i], in.Tables[i])
		}
	}
	empty, err := decodeMsg[TableList](encodeMsg(&TableList{}))
	if err != nil || len(empty.Tables) != 0 {
		t.Fatalf("empty round trip = %+v, %v", empty, err)
	}
	if _, err := decodeMsg[TableList]([]byte{1, 2}); err == nil {
		t.Error("truncated manifest must not decode")
	}
}

// rebuildFromShard rebuilds a fresh, empty replacement shard from peer
// (in-process caller) and returns it.
func rebuildFromShard(t *testing.T, peer *SparseShard, tier *TierConfig) (*SparseShard, RebuildStats) {
	t.Helper()
	fresh := NewSparseShard(peer.ShardName, trace.NewRecorder(peer.ShardName+"-rebuilt", 1<<14))
	if tier != nil {
		fresh.SetTier(tier)
	}
	t.Cleanup(fresh.Close)
	st, err := fresh.RebuildFromPeer(&localCaller{h: peer})
	if err != nil {
		t.Fatal(err)
	}
	return fresh, st
}

// requireShardsByteIdentical compares two shards' full table sets via
// table.list and table.read.
func requireShardsByteIdentical(t *testing.T, a, b *SparseShard) {
	t.Helper()
	am, err := a.Handle(trace.Context{}, MethodTableList, nil)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := b.Handle(trace.Context{}, MethodTableList, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(am, bm) {
		t.Fatalf("manifests differ:\n%x\n%x", am, bm)
	}
	list, err := decodeMsg[TableList](am)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Tables) == 0 {
		t.Fatal("empty manifest proves nothing")
	}
	for _, e := range list.Tables {
		ra := readTableRows(t, a, int(e.TableID), int(e.PartIndex))
		rb := readTableRows(t, b, int(e.TableID), int(e.PartIndex))
		if !bytes.Equal(ra.Rows, rb.Rows) {
			t.Fatalf("table %d part %d: row data differs after rebuild", e.TableID, e.PartIndex)
		}
	}
}

// TestRebuildFromPeerFP32 rebuilds an fp32 shard and checks the
// replacement's table set is byte-identical and serves identical pooled
// results.
func TestRebuildFromPeerFP32(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	epoch := src.Epoch()
	rebuilt, st := rebuildFromShard(t, src, nil)
	if st.Tables != src.NumTables() || st.Bytes != src.Bytes() {
		t.Fatalf("stats = %+v for %d tables of %d bytes", st, src.NumTables(), src.Bytes())
	}
	if rebuilt.Epoch() != 1 || src.Epoch() != epoch {
		t.Fatalf("rebuild must cut the whole set over at one epoch and leave the peer alone: rebuilt %d, peer %d -> %d",
			rebuilt.Epoch(), epoch, src.Epoch())
	}
	if rebuilt.ModelVersion() != 0 || len(rebuilt.staging) != 0 {
		t.Fatalf("rebuild left model version %d, %d open transactions", rebuilt.ModelVersion(), len(rebuilt.staging))
	}
	requireShardsByteIdentical(t, src, rebuilt)

	// Serving equivalence: the same sparse.run request pools to the same
	// bytes on the replacement.
	req := f.runRequest(t, 99)
	want, err := src.Handle(trace.Context{TraceID: 1, CallID: 1}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Handle(trace.Context{TraceID: 2, CallID: 2}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("rebuilt shard pooled different bytes")
	}
}

// TestRebuildFromPeerEncodedTiers rebuilds a tiered (fp16 cold tier +
// hot-row cache) shard: encoded rows must stream verbatim and the
// replacement must rejoin cold-cached.
func TestRebuildFromPeerEncodedTiers(t *testing.T) {
	f := newTieredMigrationFixture(t, sharding.PrecisionFP16, 0.25)
	src := f.shards[0]
	cfg := tinyConfig()
	rebuilt, _ := rebuildFromShard(t, src, tierConfigFor(&cfg, sharding.PrecisionFP16, 0.25))
	requireShardsByteIdentical(t, src, rebuilt)

	ts := rebuilt.TierSnapshot()
	if ts.FP16 != ts.Tables || ts.Tables == 0 || ts.CacheCapBytes == 0 {
		t.Fatalf("rebuilt tier snapshot = %+v, want all-fp16 behind caches", ts)
	}
	if ts.CacheBytes != 0 || ts.Hits != 0 {
		t.Fatalf("replacement must start cold-cached: %+v", ts)
	}

	// And it serves: identical request, identical bytes (the cache warms
	// on the way but admission never changes results).
	req := f.runRequest(t, 42)
	want, err := src.Handle(trace.Context{TraceID: 1, CallID: 1}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Handle(trace.Context{TraceID: 2, CallID: 2}, MethodSparseRun, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("rebuilt tiered shard pooled different bytes")
	}
}

// TestRebuildFromPeerErrors covers the failure paths: a peer that does
// not hold a requested table, and a manifest from an empty peer.
func TestRebuildFromPeerErrors(t *testing.T) {
	empty := NewSparseShard("sparse9", trace.NewRecorder("sparse9", 1<<12))
	defer empty.Close()
	fresh := NewSparseShard("sparse9", trace.NewRecorder("sparse9b", 1<<12))
	defer fresh.Close()
	st, err := fresh.RebuildFromPeer(&localCaller{h: empty})
	if err != nil || st.Tables != 0 {
		t.Fatalf("empty-peer rebuild = %+v, %v", st, err)
	}

	// A peer that drops a table mid-rebuild must surface an error, not a
	// partial install: the transaction aborts and nothing is held.
	f := newMigrationFixture(t)
	peer := f.shards[0]
	dropped := f.plan.Shards[0].Tables[len(f.plan.Shards[0].Tables)-1]
	flaky := rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		if m, err := decodeMsg[TableRead](body); method == MethodTableRead && err == nil && int(m.TableID) == dropped {
			peer.ReleaseTable(dropped, 0)
		}
		return peer.Handle(ctx, method, body)
	})
	if _, err := fresh.RebuildFromPeer(&localCaller{h: flaky}); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("rebuild from a peer that dropped a table: %v", err)
	}
	if fresh.NumTables() != 0 || len(fresh.staging) != 0 {
		t.Fatalf("failed rebuild left %d tables, %d open transactions", fresh.NumTables(), len(fresh.staging))
	}
}
