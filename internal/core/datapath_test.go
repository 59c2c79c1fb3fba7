package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// referenceSparseResponse is what a shard must answer a request with,
// computed without any of this package's layout code: SLS into fresh
// floats, bytes written one field at a time.
func referenceSparseResponse(t *testing.T, m *model.Model, body []byte) []byte {
	t.Helper()
	req, err := DecodeSparseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(req.Entries)))
	for _, e := range req.Entries {
		tab := m.Tables[e.TableID]
		pooled := make([]float32, len(e.Bags)*tab.Dim())
		embedding.SLS(pooled, tab, e.Bags)
		for _, v := range []uint32{uint32(e.TableID), uint32(e.PartIndex), uint32(len(e.Bags)), uint32(tab.Dim()), uint32(len(pooled))} {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		for _, v := range pooled {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
	}
	return out
}

// TestSparseRunBytesOnBothPaths: a shard that pools straight into its
// response body (the host's path) and one that pools aside and converts
// (a big-endian host's) must both answer with exactly the reference
// bytes — for locally held entries and for entries forwarded to the
// shard that now holds the table.
func TestSparseRunBytesOnBothPaths(t *testing.T) {
	f := newMigrationFixture(t)
	src := f.shards[0]
	ctx := trace.Context{TraceID: 31}
	body := f.runRequest(t, 77)
	want := referenceSparseResponse(t, f.m, body)

	check := func(t *testing.T, what string) {
		t.Helper()
		got, err := src.Handle(ctx, MethodSparseRun, body)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: response differs from the reference bytes", what)
		}
	}
	bothWirePaths(t, func(t *testing.T) { check(t, "all entries local") })

	// Move one table away and forward it: that entry's rows now arrive
	// as wire bytes from the destination and are copied into place.
	id := f.plan.Shards[0].Tables[0]
	f.migrateTable(t, id, 7)
	src.BeginForward(id, 0, "sparse2", f.calls[1], true)
	bothWirePaths(t, func(t *testing.T) { check(t, "one entry forwarded") })
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCollectorSumsPartsInPartOrder: a table split into three row
// partitions whose partial pools round differently in every summation
// order must produce the same bits whichever shard answers first — the
// ascending-part sum, not the arrival-order one.
func TestCollectorSumsPartsInPartOrder(t *testing.T) {
	// (1e8 + 1) - 1e8 is 0 in float32, 1e8 - 1e8 + 1 is 1: every order
	// of these three gives a different answer in at least one column.
	parts := [][]float32{{1e8, 1, -1e8}, {1, -1e8, 1e8}, {-1e8, 1e8, 1}}
	want := make([]float32, 3)
	for i := range want {
		want[i] = parts[0][i] + parts[1][i] + parts[2][i]
	}
	distinct := make(map[[3]uint32]bool)
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		var arrival [3]uint32
		for i := range arrival {
			arrival[i] = math.Float32bits(parts[order[0]][i] + parts[order[1]][i] + parts[order[2]][i])
		}
		distinct[arrival] = true

		asm := newEmbAssembler(1, 3, 1)
		inter := nn.NewFuture()
		c := newCollector(3, 1, 3, asm, 0, inter)
		for _, p := range order {
			c.deliver(p, wireF32s(parts[p]...), nil)
		}
		emb, err := asm.future.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(emb.Data, want) {
			t.Errorf("arrival order %v: summed to %v, want %v", order, emb.Data, want)
		}
		if m, err := inter.Wait(); err != nil || !sameBits(m.Data, want) {
			t.Errorf("arrival order %v: interaction blob %v, %v; want %v", order, m, err, want)
		}
	}
	if len(distinct) < 2 {
		t.Fatal("fixture does not distinguish summation orders")
	}
}

// TestSparseRunRefusesUnframeableResponse: bags are cheap in a request
// and dim×4 bytes each in the response, so a small hostile request can
// ask for a response no frame could carry; the shard must refuse before
// allocating it.
func TestSparseRunRefusesUnframeableResponse(t *testing.T) {
	sh := NewSparseShard("s", trace.NewRecorder("s", 64))
	sh.AddTable(1, embedding.NewDense(4, 4096))
	req := &SparseRequest{Nets: []string{"n"}, Entries: []SparseEntry{{TableID: 1, NumParts: 1, Bags: make([]embedding.Bag, rpc.MaxFrameSize/(4*4096)+1)}}}
	_, err := sh.Handle(trace.Context{}, MethodSparseRun, EncodeSparseRequest(req))
	if err == nil {
		t.Fatal("a response beyond the frame limit must be refused")
	}
	if want := "frame limit"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("err = %v, want mention of the %s", err, want)
	}
}

// TestSparseRunSpanNames: the spans a shard records for one call keep
// their names — the SerDe pair and the pooling operator — one each.
func TestSparseRunSpanNames(t *testing.T) {
	f := newMigrationFixture(t)
	rec := trace.NewRecorder("sparse1", 1<<10)
	sh := NewSparseShard("sparse1", rec)
	id := f.plan.Shards[0].Tables[0]
	sh.AddTable(id, f.m.Tables[id])
	req := &SparseRequest{Nets: []string{"net1"}, Entries: []SparseEntry{{TableID: int32(id), NumParts: 1, Bags: []embedding.Bag{{Indices: []int32{1}}}}}}
	if _, err := sh.Handle(trace.Context{TraceID: 1, CallID: 2}, MethodSparseRun, EncodeSparseRequest(req)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, sp := range rec.Spans() {
		seen[fmt.Sprintf("%v/%s", sp.Layer, sp.Name)]++
	}
	for _, want := range []string{
		fmt.Sprintf("%v/sparse/decode", trace.LayerSerDe),
		fmt.Sprintf("%v/sparse/encode", trace.LayerSerDe),
		fmt.Sprintf("%v/sls_sparse1", trace.LayerOp),
	} {
		if seen[want] != 1 {
			t.Errorf("span %s recorded %d times, want 1 (all: %v)", want, seen[want], seen)
		}
	}
}
