package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// referenceSparseResponse is what a shard must answer a request with,
// computed without any of this package's layout code or the packed
// pooling path: dense SLS into fresh floats, then one field at a time —
// per entry the four ids, the float count, and the rows of the non-empty
// bags only.
func referenceSparseResponse(t *testing.T, m *model.Model, body []byte) []byte {
	t.Helper()
	req, err := DecodeSparseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(req.Entries)))
	for _, e := range req.Entries {
		tab := m.Tables[e.TableID]
		dim := tab.Dim()
		pooled := make([]float32, len(e.Bags)*dim)
		embedding.SLS(pooled, tab, e.Bags)
		var rows []float32
		for b, bag := range e.Bags {
			if len(bag.Indices) > 0 {
				rows = append(rows, pooled[b*dim:(b+1)*dim]...)
			}
		}
		for _, v := range []uint32{uint32(e.TableID), uint32(e.PartIndex), uint32(len(e.Bags)), uint32(dim), uint32(len(rows))} {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		for _, v := range rows {
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
// partitions must produce the same bits whichever shard answers first,
// and they must be the bits of the dense reduction this one replaced —
// every part a full matrix with +0 rows where it had no hits, the first
// copied, the rest added in ascending part order. Item 0's partial pools
// round differently in every summation order; item 1 has rows in parts 0
// and 2 only, item 2 in part 1 only, item 3 in none; and part 2's shard
// is, in a second pass, never asked at all.
func TestCollectorSumsPartsInPartOrder(t *testing.T) {
	// (1e8 + 1) - 1e8 is 0 in float32, 1e8 - 1e8 + 1 is 1: every order
	// of item 0's three rows gives a different answer in some column.
	inf := float32(math.Inf(1))
	dense := [3][4][]float32{ // [part][item]: nil = the part's bag was empty
		{{1e8, 1, -1e8}, {0.1, inf, 3}, nil, nil},
		{{1, -1e8, 1e8}, nil, {7, 0, -inf}, nil},
		{{-1e8, 1e8, 1}, {0.2, -inf, 1e-40}, nil, nil},
	}
	for _, askPart2 := range []bool{true, false} {
		// The reduction as it was: copy the first part that answered, add
		// the others, absent rows as +0.
		want := make([]float32, 4*3)
		first := true
		for p := range dense {
			if p == 2 && !askPart2 {
				continue
			}
			for item, row := range dense[p] {
				if row == nil {
					row = []float32{0, 0, 0}
				}
				for i, v := range row {
					if first {
						want[item*3+i] = v
					} else {
						want[item*3+i] += v
					}
				}
			}
			first = false
		}
		distinct := make(map[[3]uint32]bool)
		for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			var arrival [3]uint32
			for i := range arrival {
				arrival[i] = math.Float32bits(dense[order[0]][0][i] + dense[order[1]][0][i] + dense[order[2]][0][i])
			}
			distinct[arrival] = true

			asm := newEmbAssembler(4, 3, 1)
			c := newCollector(3, 3, asm, 0)
			for _, p := range order {
				if p == 2 && !askPart2 {
					c.deliver(p, partial{}, nil)
					continue
				}
				present := make([]bool, 4)
				var vals []float32
				for item, row := range dense[p] {
					present[item] = row != nil
					vals = append(vals, row...)
				}
				c.deliver(p, packedRows(present, vals...), nil)
			}
			emb, err := asm.future.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(emb.Data, want) {
				t.Errorf("part 2 asked=%v, arrival order %v: summed to %v, want %v", askPart2, order, emb.Data, want)
			}
		}
		if len(distinct) < 2 {
			t.Fatal("fixture does not distinguish summation orders")
		}
	}
}

// TestPooledSumIsNeverNegativeZero pins the lemma the packed reduction
// rests on: a pooled value — a sum that started at +0 — is never −0,
// whatever rows went into it, so adding it onto +0 (or +0 onto it)
// returns its bits.
func TestPooledSumIsNeverNegativeZero(t *testing.T) {
	negZero := math.Float32frombits(0x80000000)
	tiny := math.Float32frombits(1)
	tab := embedding.NewDense(6, 1)
	copy(tab.Data, []float32{negZero, tiny, -tiny, 0, 1.5, -1.5})
	for _, indices := range [][]int32{{0}, {0, 0}, {1, 2}, {2, 1}, {3, 0}, {0, 3}, {4, 5}, {5, 4}, {0, 4, 5, 0}} {
		out := []float32{negZero}
		embedding.Pool([]embedding.PoolEntry{{Table: tab, Bags: []embedding.Bag{{Indices: indices}}, Out: out}})
		if math.Float32bits(out[0]) == 0x80000000 {
			t.Errorf("rows %v pooled to -0", indices)
		}
		var zero float32
		if math.Float32bits(zero+out[0]) != math.Float32bits(out[0]) || math.Float32bits(out[0]+zero) != math.Float32bits(out[0]) {
			t.Errorf("rows %v: adding +0 changed the bits of %x", indices, math.Float32bits(out[0]))
		}
	}
}

// TestSparseRunRefusesUnframeableResponse: a present row costs its
// requester eight request bytes and the shard dim×4 response bytes, so a
// small hostile request can still ask for a response no frame could
// carry; the shard must refuse before allocating it.
func TestSparseRunRefusesUnframeableResponse(t *testing.T) {
	sh := NewSparseShard("s", trace.NewRecorder("s", 64))
	sh.AddTable(1, embedding.NewDense(4, 4096))
	bags := make([]embedding.Bag, rpc.MaxFrameSize/(4*4096)+1)
	for i := range bags {
		bags[i].Indices = []int32{int32(i % 4)}
	}
	req := &SparseRequest{Nets: []string{"n"}, Entries: []SparseEntry{{TableID: 1, NumParts: 1, Bags: bags}}}
	_, err := sh.Handle(trace.Context{}, MethodSparseRun, EncodeSparseRequest(req))
	if err == nil {
		t.Fatal("a response beyond the frame limit must be refused")
	}
	if want := "frame limit"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("err = %v, want mention of the %s", err, want)
	}
}

// TestSparseRunAllEmptyBagsIsHeadersOnly: the converse — the frontend's
// largest execution (1024 items) asking every table about nothing but
// empty bags is answered with entry headers alone, and serving it
// allocates in proportion to the request, not to bags × dim.
func TestSparseRunAllEmptyBagsIsHeadersOnly(t *testing.T) {
	const tables, items, dim = 12, 1024, 64
	sh := NewSparseShard("s", trace.NewRecorder("s", 64))
	req := &SparseRequest{Nets: []string{"n"}}
	for id := 0; id < tables; id++ {
		sh.AddTable(id, embedding.NewDense(4, dim))
		req.Entries = append(req.Entries, SparseEntry{TableID: int32(id), NumParts: 1, Bags: make([]embedding.Bag, items)})
	}
	body := EncodeSparseRequest(req)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resp, err := sh.Handle(trace.Context{}, MethodSparseRun, body)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 + pooledHeader*tables; len(resp) != want {
		t.Fatalf("response of %d bytes, want %d: headers only", len(resp), want)
	}
	dec, err := DecodeSparseResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range dec.Entries {
		if e.Rows != items || e.Cols != dim || len(e.Data) != 0 {
			t.Errorf("entry %d: %d values for %dx%d, want none", i, len(e.Data), e.Rows, e.Cols)
		}
	}
	// The decoded bag headers (24 bytes a bag) are the request's own size
	// class; the dense rows would have been 256 bytes a bag.
	if got, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(tables*items*32+tables*1024); got > limit {
		t.Errorf("serving allocated %d bytes, want at most %d (dense rows alone were %d)", got, limit, tables*items*dim*4)
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
