package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
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

// referenceSparseRequest is a sparse.run body written one field at a time
// from the layout, with none of this package's layout code: the net
// table, then per entry the four ids and its bag list as n, every length,
// every index.
func referenceSparseRequest(req *SparseRequest) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(req.Nets)))
	for _, net := range req.Nets {
		out = append(binary.LittleEndian.AppendUint32(out, uint32(len(net))), net...)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(len(req.Entries)))
	for _, e := range req.Entries {
		for _, v := range []int32{e.Net, e.TableID, e.PartIndex, e.NumParts, int32(len(e.Bags))} {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
		for _, bag := range e.Bags {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(bag.Indices)))
		}
		for _, bag := range e.Bags {
			for _, idx := range bag.Indices {
				out = binary.LittleEndian.AppendUint32(out, uint32(idx))
			}
		}
	}
	return out
}

// bodyKeeper keeps the sparse.run calls that pass through it.
type bodyKeeper struct {
	rpc.Caller
	mu    sync.Mutex
	calls []*rpc.Call
}

func (c *bodyKeeper) Go(req *rpc.Request) *rpc.Call {
	call := c.Caller.Go(req)
	c.mu.Lock()
	c.calls = append(c.calls, call)
	c.mu.Unlock()
	return call
}

// TestSparseRunBytesOnBothPaths pins both directions of a sparse.run call
// to bytes written field by field, on the host's path (bodies read and
// pooled into in place) and on the one a big-endian host takes (decoded
// copies, a conversion pass).
//
// Request side: the body an rpcOp lays out from the request's flat bag
// lists — whole tables by a filter pass over the lengths and a memmove,
// a row partition by its filter pass — is the reference encoding of what
// it carries, which is the request's non-empty bags, hashed, and for a
// partition localized, as the authoring-form code computes them, in bag
// order: the main shard sends no empty bag, and each answer has one row
// per bag sent.
//
// Response side: a shard answers with exactly the reference bytes, and so
// does the shard a table migrated to, once the source has released it.
func TestSparseRunBytesOnBothPaths(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		cfg := smallModel("DRM3")
		m := model.Build(cfg)
		plan, err := sharding.NSBP(&cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		wreq := workload.NewGenerator(cfg, 3).Next()
		// What every table's bags hash to, in the authoring form.
		hash := &nn.HashAllBags{OpName: "hash", Entries: make([]nn.HashEntry, len(cfg.Tables))}
		for _, tab := range cfg.Tables {
			hash.Entries[tab.ID] = nn.HashEntry{Buckets: int32(tab.Rows), In: embedding.Flatten(wreq.Bags[tab.ID]).Indices}
		}
		if err := hash.Run(nil); err != nil {
			t.Fatal(err)
		}
		hashed := func(id int) []embedding.Bag {
			return embedding.BagList{Lens: embedding.Flatten(wreq.Bags[id]).Lens, Indices: hash.Entries[id].Out}.Bags()
		}
		nonEmpty := func(bags []embedding.Bag) []embedding.Bag {
			return slices.DeleteFunc(bags, func(b embedding.Bag) bool { return len(b.Indices) == 0 })
		}
		bothWirePaths(t, func(t *testing.T) {
			keepers := make(map[string]*bodyKeeper)
			f := newShardedFixture(t, m, plan, EngineConfig{}, func(svc string, c rpc.Caller) rpc.Caller {
				keepers[svc] = &bodyKeeper{Caller: c}
				return keepers[svc]
			})
			if _, err := f.eng.Execute(trace.Context{TraceID: 1}, FromWorkload(wreq)); err != nil {
				t.Fatal(err)
			}
			entries, parts := 0, 0
			for svc, k := range keepers {
				for _, call := range k.calls {
					body := call.Req.Body
					got, err := DecodeSparseRequest(body)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceSparseRequest(got); !bytes.Equal(body, want) {
						t.Fatalf("%s: the body laid out differs from the reference bytes of what it decodes to\n%x\n%x", svc, body, want)
					}
					resp, err := DecodeSparseResponse(call.Resp.Body)
					if err != nil || len(resp.Entries) != len(got.Entries) {
						t.Fatalf("%s: %d answers for %d entries (err %v)", svc, len(resp.Entries), len(got.Entries), err)
					}
					for i, e := range got.Entries {
						want := hashed(int(e.TableID))
						if e.NumParts > 1 {
							want = oldLocalizeBags(want, int(e.PartIndex), int(e.NumParts))
							parts++
						}
						if want = nonEmpty(want); !bagsEqual(e.Bags, want) {
							t.Fatalf("%s: table %d part %d/%d carries %v, want %v", svc, e.TableID, e.PartIndex, e.NumParts, e.Bags, want)
						}
						for b, bag := range e.Bags {
							if len(bag.Indices) == 0 {
								t.Fatalf("%s: table %d part %d/%d sends bag %d empty", svc, e.TableID, e.PartIndex, e.NumParts, b)
							}
						}
						if int(resp.Entries[i].Rows) != len(e.Bags) {
							t.Fatalf("%s: table %d part %d/%d answered for %d bags, %d sent", svc, e.TableID, e.PartIndex, e.NumParts, resp.Entries[i].Rows, len(e.Bags))
						}
						entries++
					}
				}
			}
			if entries < len(cfg.Tables) || parts == 0 {
				t.Fatalf("fixture: %d entries (%d of a partition) sent for %d tables", entries, parts, len(cfg.Tables))
			}
		})
	})

	f := newMigrationFixture(t)
	src := f.shards[0]
	ctx := trace.Context{TraceID: 31}
	body := f.runRequest(t, 77)
	sent, err := DecodeSparseRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if ref := referenceSparseRequest(sent); !bytes.Equal(body, ref) {
		t.Fatalf("EncodeSparseRequest differs from the reference bytes\n%x\n%x", body, ref)
	}
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
		// A body that does not start on a 4-byte boundary cannot be read in
		// place: the views fall back to copies, and the answer is the same.
		odd := append(make([]byte, 1, 1+len(body)), body...)[1:]
		if got, err := src.Handle(ctx, MethodSparseRun, odd); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: a mis-aligned body was answered differently (err %v)", what, err)
		}
	}
	bothWirePaths(t, func(t *testing.T) { check(t, "all entries local") })

	// Move one table and release it at the source: the source refuses it,
	// and the destination answers with the reference bytes.
	id := f.plan.Shards[0].Tables[0]
	moved := f.tableRequest(t, 77, id)
	f.migrateTable(t, id, 7)
	releaseTable(t, src, handleCall(src), id)
	bothWirePaths(t, func(t *testing.T) { requireMoved(t, src, f.shards[1], moved, referenceSparseResponse(t, f.m, moved)) })
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

			asm := newEmbAssembler(4, testTables(3, 3))
			for _, p := range order {
				if p == 2 && !askPart2 {
					asm.place(0, p, partial{})
					continue
				}
				present := make([]bool, 4)
				var vals []float32
				for item, row := range dense[p] {
					present[item] = row != nil
					vals = append(vals, row...)
				}
				asm.place(0, p, packedRows(present, vals...))
			}
			asm.delivered(3)
			emb, err := asm.wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := emb.Dense().Data; !sameBits(got, want) {
				t.Errorf("part 2 asked=%v, arrival order %v: summed to %v, want %v", askPart2, order, got, want)
			}
			// Item 3 has a row in no part: the packed sums hold three rows.
			if n := len(emb.Slots[0].Data); n != 3*3 {
				t.Errorf("%d summed values, want 9", n)
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
		embedding.Pool([]embedding.PoolEntry{{Table: tab, Lens: []int32{int32(len(indices))}, Indices: indices, Out: out}})
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
	sh.InstallTable(1, 0, embedding.NewDense(4, 4096))
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
	rec := trace.NewRecorder("s", 64)
	rec.Record(trace.Span{}) // the first span installs the recorder's chunk: not this call's cost
	sh := NewSparseShard("s", rec)
	// A net name of whole words, as every model's are: one that is not
	// leaves the entries off 4-byte boundaries, and they are copied out.
	req := &SparseRequest{Nets: []string{"net1"}}
	for id := 0; id < tables; id++ {
		sh.InstallTable(id, 0, embedding.NewDense(4, dim))
		req.Entries = append(req.Entries, SparseEntry{TableID: int32(id), NumParts: 1, Bags: make([]embedding.Bag, items)})
	}
	body := EncodeSparseRequest(req)
	// TotalAlloc is process-wide: goroutines of earlier tests still winding
	// down add to it, never take from it, so the least of several calls is
	// what one call allocates.
	var resp []byte
	allocated := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var m0, m1 runtime.MemStats
		var err error
		runtime.ReadMemStats(&m0)
		resp, err = sh.Handle(trace.Context{}, MethodSparseRun, body)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		allocated = min(allocated, m1.TotalAlloc-m0.TotalAlloc)
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
	// The request is read in place, so what serving it allocates does not
	// even grow with its bags (the parent built a 24-byte header per bag);
	// the dense rows would have been 256 bytes a bag.
	if limit := uint64(tables * 1024); wireNative && allocated > limit {
		t.Errorf("serving allocated %d bytes, want at most %d (dense rows alone were %d)", allocated, limit, tables*items*dim*4)
	}
}

// TestSparseRunSpanNames: the spans a shard records for one call keep
// their names — the SerDe pair and the pooling operator — one each.
func TestSparseRunSpanNames(t *testing.T) {
	f := newMigrationFixture(t)
	rec := trace.NewRecorder("sparse1", 1<<10)
	sh := NewSparseShard("sparse1", rec)
	id := f.plan.Shards[0].Tables[0]
	sh.InstallTable(id, 0, f.m.Tables[id])
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

// TestBatchRowRangePoolsLikeTheWhole: a batch's row range of a table's
// bag list, cut through the offsets admission derived (execution.bags),
// pools to exactly the rows the whole list pools to — bit for bit, on
// every table backend and under both kernel families — for batch sizes
// that divide the request, do not, and exceed it.
func TestBatchRowRangePoolsLikeTheWhole(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	rng := rand.New(rand.NewSource(12))
	const rows, dim, items = 200, 24, 37
	dense := embedding.NewDenseRandom(12, 0, rows, dim, 1)
	tables := []embedding.Table{
		dense, dense.Quantize(quant.Bits8), dense.Quantize(quant.Bits4), dense.ToFP16(),
		embedding.NewTiered(dense.Quantize(quant.Bits8), 16),
	}
	req := &RankingRequest{Items: items}
	hash := &nn.HashAllBags{}
	for id := range tables {
		bags := make([]embedding.Bag, items)
		for b := range bags {
			for k := rng.Intn(4) * rng.Intn(3); k > 0; k-- {
				bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(rows)))
			}
		}
		l := embedding.Flatten(bags)
		req.Bags = append(req.Bags, TableBags{TableID: int32(id), BagList: l})
		hash.Entries = append(hash.Entries, nn.HashEntry{Out: l.Indices})
	}
	for _, kern := range []tensor.Kernel{tensor.KernelGeneric, tensor.KernelVector} {
		tensor.SetKernel(kern)
		for _, batch := range []int{1, 6, 37, 64} {
			x := &execution{req: req, hash: hash, batch: batch}
			x.cutBatches(items)
			for id, tab := range tables {
				all := x.bags(id, 0, items)
				whole := make([]float32, items*dim)
				embedding.Pool([]embedding.PoolEntry{{Table: tab, Lens: all.Lens, Indices: all.Indices, Out: whole, Stride: dim}})
				for start := 0; start < items; start += batch {
					end := min(start+batch, items)
					l := x.bags(id, start, end)
					got := make([]float32, (end-start)*dim)
					embedding.Pool([]embedding.PoolEntry{{Table: tab, Lens: l.Lens, Indices: l.Indices, Out: got, Stride: dim}})
					if !sameBits(got, whole[start*dim:end*dim]) {
						t.Fatalf("%v batch %d table %d: items [%d, %d) pooled alone differ from the whole pooled, then sliced", kern, batch, id, start, end)
					}
				}
			}
		}
	}
}
