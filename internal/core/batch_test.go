package core

import (
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"

	"repro/internal/model"
)

// TestExecuteBatchResponsesIndependentlyMutable is the demux-aliasing
// regression: each coalesced response must own its storage, so a caller
// mutating (or growing) one response cannot corrupt a neighbor's scores,
// and retaining one response does not pin the whole batch's array.
func TestExecuteBatchResponsesIndependentlyMutable(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 11)
	var items []BatchItem
	for i := 0; i < 4; i++ {
		items = append(items, BatchItem{Ctx: trace.Context{TraceID: uint64(i + 1)}, Req: FromWorkload(gen.Next())})
	}
	got, err := eng.ExecuteBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, len(got))
	for i := range got {
		want[i] = append([]float32(nil), got[i]...)
	}

	// Stomp response 0 in place and grow it to (what would be) its
	// neighbor's region under full-capacity aliasing.
	for j := range got[0] {
		got[0][j] = -1e30
	}
	got[0] = append(got[0], -2e30, -2e30)

	for i := 1; i < len(got); i++ {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("response %d item %d corrupted by writes to response 0: %v != %v",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestArenaReuseNoLiveAliasing runs consecutive (and concurrent)
// executions through one engine: scores returned by an earlier execution
// must not change when later executions reuse the pooled arenas — the
// no-live-blob-aliasing contract, and a -race target for the arena
// lifecycle.
func TestArenaReuseNoLiveAliasing(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 12)
	reqA := FromWorkload(gen.Next())
	reqB := FromWorkload(gen.Next())

	first, err := eng.Execute(trace.Context{TraceID: 1}, reqA)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), first...)
	for i := 0; i < 8; i++ {
		if _, err := eng.Execute(trace.Context{TraceID: uint64(2 + i)}, reqB); err != nil {
			t.Fatal(err)
		}
	}
	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatalf("score %d changed from %v to %v after later executions reused the arena",
				i, snapshot[i], first[i])
		}
	}

	// Concurrent executions each draw their own arena from the pool.
	var wg sync.WaitGroup
	results := make([][]float32, 8)
	for g := 0; g < len(results); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out, err := eng.Execute(trace.Context{TraceID: uint64(100 + g)}, reqA)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range results {
		for i := range out {
			if out[i] != snapshot[i] {
				t.Fatalf("concurrent execution %d score %d = %v, want %v", g, i, out[i], snapshot[i])
			}
		}
	}
}

// TestBlobScheduleBuiltAndPacked pins that compilation produces an arena
// schedule covering the dense stack (packing behavior itself is covered
// by the nn arena tests).
func TestBlobScheduleBuiltAndPacked(t *testing.T) {
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<14)
	eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	prog := eng.prog.Load()
	if prog.arenas == nil {
		t.Fatal("compiled program has no arena pool")
	}
	sched, err := buildSchedule(prog)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Slots() < 5 {
		t.Errorf("schedule covers %d blobs; expected the dense stack (>=5)", sched.Slots())
	}
	a := prog.arenas.Get(4)
	if a == nil {
		t.Fatal("arena pool returned nil")
	}
	prog.arenas.Put(a)
}

// TestEveryExecutionIsCutIntoDefaultBatches pins the traffic fact
// tensor.MatMul's single-goroutine design rests on: whatever reaches the
// engine — a frontend-coalesced execution or one request — runs as
// ⌈items/BatchSize()⌉ batches of at most DefaultBatch (16, 16, 24) items,
// so no served GEMM is taller than that and dense parallelism is per
// batch. A change that hands the GEMM taller matrices has to edit this
// test, and re-open row-parallel GEMM with a benchmark workload on that
// side.
func TestEveryExecutionIsCutIntoDefaultBatches(t *testing.T) {
	batches := func(reg *obs.Registry) int64 { return reg.Snapshot().Counter("engine.batches") }
	for name, batch := range map[string]int{"DRM1": 16, "DRM2": 16, "DRM3": 24} {
		cfg := smallModel(name)
		reg := obs.NewRegistry()
		eng, err := NewEngine(model.Build(cfg), sharding.Singular(&cfg), EngineConfig{Recorder: trace.NewRecorder("main", 1<<16), Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		if eng.BatchSize() != batch {
			t.Fatalf("%s: BatchSize() = %d, want %d", name, eng.BatchSize(), batch)
		}
		gen := workload.NewGenerator(cfg, 5)
		var items []BatchItem
		total := 0
		for i := 0; i < 4; i++ {
			req := FromWorkload(gen.Next())
			total += int(req.Items)
			items = append(items, BatchItem{Ctx: trace.Context{TraceID: uint64(i + 1)}, Req: req})
		}
		if _, err := eng.ExecuteBatch(items); err != nil {
			t.Fatal(err)
		}
		if got, want := batches(reg), int64((total+batch-1)/batch); got != want {
			t.Errorf("%s: %d coalesced items ran as %d batches, want %d", name, total, got, want)
		}

		if name != "DRM3" {
			continue
		}
		// A DRM3 request of 17–24 items is one batch: the tallest GEMM any
		// served request reaches.
		for _, n := range []int{17, 24} {
			one := cfg
			one.MeanItems, one.ItemsSigma = n, 0
			req := FromWorkload(workload.NewGenerator(one, 9).Next())
			if int(req.Items) != n {
				t.Fatalf("generated %d items, want %d", req.Items, n)
			}
			before := batches(reg)
			if _, err := eng.Execute(trace.Context{TraceID: 99}, req); err != nil {
				t.Fatal(err)
			}
			if got := batches(reg) - before; got != 1 {
				t.Errorf("DRM3: a %d-item request ran as %d batches, want 1", n, got)
			}
		}
	}
}
