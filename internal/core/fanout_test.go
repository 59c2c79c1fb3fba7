package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Tests of the request-level sparse fan-out: one sparse.run per shard
// per request, issued at admission, whatever the batch size.

// smallModel shrinks a paper model's tables so a test can build it in
// milliseconds; DRM3 keeps a dominating table large enough for NSBP to
// row-partition.
func smallModel(name string) model.Config {
	cfg := model.ByName(name)
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 16 + i%7
	}
	if name == "DRM3" {
		cfg.Tables[0].Rows = 1024
	}
	cfg.MeanItems = 20
	return cfg
}

// shardedFixture is an engine over in-process shards whose callers the
// test can wrap.
type shardedFixture struct {
	eng    *Engine
	shards []*SparseShard
}

func newShardedFixture(t *testing.T, m *model.Model, plan *sharding.Plan, cfg EngineConfig, wrap func(svc string, c rpc.Caller) rpc.Caller) *shardedFixture {
	t.Helper()
	recs := make([]*trace.Recorder, plan.NumShards)
	for i := range recs {
		recs[i] = trace.NewRecorder(ServiceName(i+1), 1<<14)
	}
	shards, err := MaterializeShards(m, plan, recs)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]rpc.Caller)
	for _, sh := range shards {
		var c rpc.Caller = &localCaller{h: sh}
		if wrap != nil {
			c = wrap(sh.ShardName, c)
		}
		byName[sh.ShardName] = c
	}
	cfg.Recorder = trace.NewRecorder("main", 1<<16)
	cfg.ClientFor = func(svc string) (rpc.Caller, error) { return byName[svc], nil }
	eng, err := NewEngine(m, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &shardedFixture{eng: eng, shards: shards}
}

// TestDistributedScoresOnBothPaths runs whole requests through the
// rank → sparse.run → scatter round trip: the distributed engine scores
// every request exactly as the singular engine does — bit for bit (pooled
// rows are moved, never re-summed; a partitioned table's parts are
// summed in part order) — for each model under whole-table and
// row-partitioned plans, at every batch size (the batch cut is a view of
// the request-wide result, never on the wire), for single and coalesced
// executions, under the default and the paper's call schedule, on the
// host's wire path and the conversion one.
func TestDistributedScoresOnBothPaths(t *testing.T) {
	for _, name := range []string{"DRM1", "DRM2", "DRM3"} {
		cfg := smallModel(name)
		m := model.Build(cfg)
		gen := workload.NewGenerator(cfg, 9)
		reqs := make([]*RankingRequest, 8)
		maxItems := 0
		for i := range reqs {
			reqs[i] = FromWorkload(gen.Next())
			maxItems = max(maxItems, int(reqs[i].Items))
		}
		singular, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: trace.NewRecorder("main", 1<<16)})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float32, len(reqs))
		for i, req := range reqs {
			if want[i], err = singular.Execute(trace.Context{TraceID: 1}, req); err != nil {
				t.Fatal(err)
			}
		}
		lb, err := sharding.LoadBalanced(&cfg, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		nsbp, err := sharding.NSBP(&cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if name == "DRM3" && len(nsbp.Shards[len(nsbp.Shards)-1].Parts) == 0 {
			t.Fatal("fixture: NSBP did not row-partition DRM3's dominating table")
		}
		for _, plan := range []*sharding.Plan{lb, nsbp} {
			for _, batch := range []int{1, 7, 16, 8 * maxItems} {
				for _, paper := range []bool{false, true} {
					f := newShardedFixture(t, m, plan, EngineConfig{BatchSize: batch, PaperSchedule: paper}, nil)
					t.Run(fmt.Sprintf("%s/%s/batch%d/paper=%v", name, plan.Name(), batch, paper), func(t *testing.T) {
						bothWirePaths(t, func(t *testing.T) {
							for _, n := range []int{1, 3, 8} {
								items := make([]BatchItem, n)
								for i := range items {
									items[i] = BatchItem{Ctx: trace.Context{TraceID: uint64(10 + i)}, Req: reqs[i]}
								}
								got, err := f.eng.ExecuteBatch(items)
								if err != nil {
									t.Fatal(err)
								}
								for i := range got {
									if !sameBits(got[i], want[i]) {
										t.Fatalf("%d coalesced: request %d scores %v, singular %v", n, i, got[i], want[i])
									}
								}
							}
						})
					})
				}
			}
		}
	}
}

// countingCaller counts the sparse.run calls one shard receives.
type countingCaller struct {
	rpc.Caller
	mu    sync.Mutex
	calls int
}

func (c *countingCaller) Go(req *rpc.Request) *rpc.Call {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Caller.Go(req)
}

func (c *countingCaller) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.calls
	c.calls = 0
	return n
}

// shardsWithLookups works out, from the request alone, which shards of
// plan hold a row the request reads.
func shardsWithLookups(t *testing.T, cfg *model.Config, plan *sharding.Plan, req *RankingRequest) map[string]bool {
	t.Helper()
	hash := &nn.HashAllBags{OpName: "hash", Entries: make([]nn.HashEntry, len(cfg.Tables))}
	for _, tab := range cfg.Tables {
		l, _ := req.BagsOf(int32(tab.ID))
		hash.Entries[tab.ID] = nn.HashEntry{Buckets: int32(tab.Rows), In: l.Indices}
	}
	if err := hash.Run(nil); err != nil {
		t.Fatal(err)
	}
	hit := make(map[string]bool)
	for _, a := range plan.Shards {
		svc := ServiceName(a.Shard)
		for _, id := range a.Tables {
			if len(hash.Entries[id].Out) > 0 {
				hit[svc] = true
			}
		}
		for _, pr := range a.Parts {
			for _, idx := range hash.Entries[pr.TableID].Out {
				if int(idx)%pr.NumParts == pr.PartIndex {
					hit[svc] = true
				}
			}
		}
	}
	return hit
}

// TestOneCallPerShardPerRequest: whatever the batch size, an execution
// makes exactly one sparse.run call to every shard holding a row it
// reads and none to a shard it has no lookups for — the DRM3 "only two
// shards are accessed" rule, per request — and counts them in
// engine.rpc.calls_per_request's terms.
func TestOneCallPerShardPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		nsbp   bool
	}{{"DRM1", 4, false}, {"DRM3", 8, true}} {
		cfg := smallModel(tc.name)
		m := model.Build(cfg)
		var plan *sharding.Plan
		var err error
		if tc.nsbp {
			plan, err = sharding.NSBP(&cfg, tc.shards)
		} else {
			plan, err = sharding.LoadBalanced(&cfg, tc.shards, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.NewGenerator(cfg, 4)
		sawIdle := false
		for _, batch := range []int{1, 7, 16, 1 << 20} {
			counters := make(map[string]*countingCaller)
			f := newShardedFixture(t, m, plan, EngineConfig{BatchSize: batch}, func(svc string, c rpc.Caller) rpc.Caller {
				counters[svc] = &countingCaller{Caller: c}
				return counters[svc]
			})
			for i := 0; i < 4; i++ {
				req := FromWorkload(gen.Next())
				if _, err := f.eng.Execute(trace.Context{TraceID: uint64(i + 1)}, req); err != nil {
					t.Fatal(err)
				}
				hit := shardsWithLookups(t, &cfg, plan, req)
				for svc, c := range counters {
					want := 0
					if hit[svc] {
						want = 1
					} else {
						sawIdle = true
					}
					if got := c.take(); got != want {
						t.Errorf("%s batch %d request %d: %d calls to %s, want %d", tc.name, batch, i, got, svc, want)
					}
				}
			}
		}
		if tc.nsbp && !sawIdle {
			t.Errorf("%s fixture never left a shard without lookups", tc.name)
		}
	}
}

// failingCaller answers its shard's calls with err, or with the real
// response passed through mangle.
type failingCaller struct {
	rpc.Caller
	err    error
	mangle func([]byte) []byte
}

func (c *failingCaller) Go(req *rpc.Request) *rpc.Call {
	if c.err != nil {
		call := &rpc.Call{Req: req, Err: c.err, Done: make(chan struct{})}
		close(call.Done)
		return call
	}
	call := c.Caller.Go(req)
	<-call.Done
	if c.mangle != nil && call.Err == nil {
		call.Resp.Body = c.mangle(call.Resp.Body)
	}
	return call
}

// resizeEntry rewrites a sparse response so that its first entry holding
// some rows, but not one for every bag, carries delta rows more (zeros
// appended) or fewer than the shard sent. Every entry still decodes.
func resizeEntry(b []byte, delta int) []byte {
	off := 4
	for i := uint32(0); i < binary.LittleEndian.Uint32(b); i++ {
		rows, cols, n := binary.LittleEndian.Uint32(b[off+8:]), binary.LittleEndian.Uint32(b[off+12:]), binary.LittleEndian.Uint32(b[off+16:])
		end := off + pooledHeader + 4*int(n)
		if n > 0 && n < rows*cols {
			out := append([]byte(nil), b[:end]...)
			if delta < 0 {
				out = out[:end-4*int(cols)]
			} else {
				out = append(out, make([]byte, 4*cols)...)
			}
			binary.LittleEndian.PutUint32(out[off+16:], uint32(int(n)+delta*int(cols)))
			return append(out, b[end:]...)
		}
		off = end
	}
	panic("fixture: no partly filled entry to resize")
}

// settle waits for the goroutine count to fall back to base: no call's
// completion goroutine and no batch may outlive its request.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the request", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardFailureFailsTheRequestOnce: one shard erroring, or answering
// with an entry of the wrong shape — or one row more or fewer than the
// bags it was sent imply — fails the whole request with one error naming
// that shard; every batch returns, nothing is left waiting
// on a future, and the engine serves the next request.
func TestShardFailureFailsTheRequestOnce(t *testing.T) {
	cfg := smallModel("DRM1")
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := FromWorkload(workload.NewGenerator(cfg, 6).Next())
	for _, tc := range []struct {
		name string
		bad  failingCaller
	}{
		{"error", failingCaller{err: errors.New("shard down")}},
		{"rows", failingCaller{mangle: func(b []byte) []byte {
			// The first entry claims one row more than was asked for.
			out := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(out[12:], binary.LittleEndian.Uint32(out[12:])+1)
			return out
		}}},
		{"truncated", failingCaller{mangle: func(b []byte) []byte { return b[:len(b)/2] }}},
		{"one row too few", failingCaller{mangle: func(b []byte) []byte { return resizeEntry(b, -1) }}},
		{"one row too many", failingCaller{mangle: func(b []byte) []byte { return resizeEntry(b, +1) }}},
	} {
		for _, paper := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/paper=%v", tc.name, paper), func(t *testing.T) {
				bad := tc.bad
				var broken bool
				f := newShardedFixture(t, m, plan, EngineConfig{BatchSize: 5, PaperSchedule: paper}, func(svc string, c rpc.Caller) rpc.Caller {
					if svc != "sparse2" {
						return c
					}
					bad.Caller = c
					return &switchCaller{healthy: c, failing: &bad, broken: &broken}
				})
				base := runtime.NumGoroutine()
				want, err := f.eng.Execute(trace.Context{TraceID: 1}, req)
				if err != nil {
					t.Fatal(err)
				}
				broken = true
				got, err := f.eng.Execute(trace.Context{TraceID: 2}, req)
				if err == nil {
					t.Fatalf("request scored %v through a failing shard", got)
				}
				if !strings.Contains(err.Error(), "sparse2") || strings.Contains(err.Error(), "sparse1") || strings.Contains(err.Error(), "sparse3") {
					t.Errorf("error should name sparse2 alone: %v", err)
				}
				settle(t, base)
				if _, err := f.eng.ExecuteBatch([]BatchItem{{Req: req}, {Req: req}}); err == nil {
					t.Error("coalesced execution through a failing shard succeeded")
				}
				settle(t, base)
				broken = false
				if got, err := f.eng.Execute(trace.Context{TraceID: 3}, req); err != nil || !sameBits(got, want) {
					t.Errorf("after the shard healed: %v, %v; want %v", got, err, want)
				}
			})
		}
	}
}

// switchCaller routes to failing while *broken is set. The flag is only
// flipped between requests.
type switchCaller struct {
	healthy, failing rpc.Caller
	broken           *bool
}

func (c *switchCaller) Go(req *rpc.Request) *rpc.Call {
	if *c.broken {
		return c.failing.Go(req)
	}
	return c.healthy.Go(req)
}

func (c *switchCaller) Close() error { return nil }

// recordingCaller records which tables each call asks its shard for and
// can hold the first call it sees until released.
type recordingCaller struct {
	rpc.Caller
	mu     sync.Mutex
	tables [][]int32
	gate   chan struct{} // non-nil: the next call blocks here first
	seen   chan struct{} // closed when a call reaches the gate
}

func (c *recordingCaller) Go(req *rpc.Request) *rpc.Call {
	c.mu.Lock()
	gate, seen := c.gate, c.seen
	c.gate, c.seen = nil, nil
	c.mu.Unlock()
	if gate != nil {
		close(seen)
		<-gate
	}
	sreq, err := DecodeSparseRequest(req.Body)
	if err == nil {
		ids := make([]int32, len(sreq.Entries))
		for i, e := range sreq.Entries {
			ids[i] = e.TableID
		}
		c.mu.Lock()
		c.tables = append(c.tables, ids)
		c.mu.Unlock()
	}
	return c.Caller.Go(req)
}

// TestRerouteMidRequestChangesNoCall: a request reads the routing
// program once, at admission, so a Reroute landing while its calls are
// still being issued changes none of them; the next request routes under
// the new plan.
func TestRerouteMidRequestChangesNoCall(t *testing.T) {
	cfg := smallModel("DRM2")
	m := model.Build(cfg)
	planA, err := sharding.LoadBalanced(&cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Plan B swaps the two shards' table sets; every shard holds every
	// table, so both plans are servable.
	planB := &sharding.Plan{ModelName: planA.ModelName, Strategy: planA.Strategy, NumShards: 2, Shards: []sharding.Assignment{
		{Shard: 1, Tables: planA.Shards[1].Tables}, {Shard: 2, Tables: planA.Shards[0].Tables},
	}}
	rng := rand.New(rand.NewSource(2))
	req := FromWorkload(workload.NewGenerator(cfg, rng.Int63()).Next())
	for _, paper := range []bool{false, true} {
		callers := make(map[string]*recordingCaller)
		f := newShardedFixture(t, m, planA, EngineConfig{BatchSize: 1 << 20, PaperSchedule: paper}, func(svc string, c rpc.Caller) rpc.Caller {
			callers[svc] = &recordingCaller{Caller: c}
			return callers[svc]
		})
		for _, sh := range f.shards {
			for id, tab := range m.Tables {
				sh.AddTable(id, tab)
			}
		}
		want, err := f.eng.Execute(trace.Context{TraceID: 1}, req)
		if err != nil {
			t.Fatal(err)
		}
		perCall := len(callers["sparse1"].tables)
		tablesOf := func(svc string) []int32 {
			var all []int32
			for _, ids := range callers[svc].tables {
				all = append(all, ids...)
			}
			callers[svc].tables = nil
			return all
		}
		a1, a2 := tablesOf("sparse1"), tablesOf("sparse2")

		// Hold the request's first call to sparse1, reroute, release.
		gate, seen := make(chan struct{}), make(chan struct{})
		callers["sparse1"].gate, callers["sparse1"].seen = gate, seen
		done := make(chan error, 1)
		var got []float32
		go func() {
			var err error
			got, err = f.eng.Execute(trace.Context{TraceID: 2}, req)
			done <- err
		}()
		<-seen
		if err := f.eng.Reroute(planB); err != nil {
			t.Fatal(err)
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Errorf("paper=%v: rerouted mid-request scores differ", paper)
		}
		if len(callers["sparse1"].tables) != perCall {
			t.Errorf("paper=%v: %d calls to sparse1, want %d", paper, len(callers["sparse1"].tables), perCall)
		}
		if g1, g2 := tablesOf("sparse1"), tablesOf("sparse2"); !slices.Equal(g1, a1) || !slices.Equal(g2, a2) {
			t.Errorf("paper=%v: a call of the in-flight request followed the new plan", paper)
		}
		if _, err := f.eng.Execute(trace.Context{TraceID: 3}, req); err != nil {
			t.Fatal(err)
		}
		if g1, g2 := tablesOf("sparse1"), tablesOf("sparse2"); !slices.Equal(g1, a2) || !slices.Equal(g2, a1) {
			t.Errorf("paper=%v: the next request did not route under the new plan", paper)
		}
	}
}

// oldLocalizeBags filters bags to one modulus partition, rebased to the
// partition's local rows, the plainest way: an append per matching index.
func oldLocalizeBags(bags []embedding.Bag, part, numParts int) []embedding.Bag {
	out := make([]embedding.Bag, len(bags))
	for b, bag := range bags {
		for _, idx := range bag.Indices {
			if int(idx)%numParts == part {
				out[b].Indices = append(out[b].Indices, idx/int32(numParts))
			}
		}
	}
	return out
}

// TestAppendPartMatchesAppendVersion: the count pass and the filter pass
// that write a partition's bag list straight into a request body produce
// the list the per-bag-append version does, and fill the bytes they were
// sized to exactly.
func TestAppendPartMatchesAppendVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, numParts := range []int{2, 3, 7} {
		for trial := 0; trial < 50; trial++ {
			bags := make([]embedding.Bag, rng.Intn(40))
			for b := range bags {
				for k := rng.Intn(6); k > 0; k-- {
					bags[b].Indices = append(bags[b].Indices, int32(rng.Intn(1<<20)))
				}
			}
			l := embedding.Flatten(bags)
			for part := 0; part < numParts; part++ {
				want := oldLocalizeBags(bags, part, numParts)
				n := countPart(l.Indices, part, numParts)
				if n != embedding.TotalLookups(want) {
					t.Fatalf("parts %d part %d: counted %d indices, want %d", numParts, part, n, embedding.TotalLookups(want))
				}
				b, sent := appendPart(make([]byte, 0, bagListSize(len(bags), n)), l, part, numParts, n)
				r := reader{b: b}
				got, _, err := r.bagList()
				if err != nil || len(b) != cap(b) || len(r.b) != 0 || !slices.Equal(sent, got.Lens) || !bagsEqual(got.Bags(), want) {
					t.Fatalf("parts %d part %d: wrote %v (%d of %d bytes, err %v), want %v", numParts, part, got, len(b), cap(b), err, want)
				}
			}
		}
	}
}
