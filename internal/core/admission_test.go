package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestAdmissionHoldsItsPlan: an Admission holds the plan it entered —
// Reroute on another goroutine does not return until the admission's
// Execute has — and one executed after the plan changed under it scores
// byte-identically to the control, as does the next execution, under the
// new plan.
func TestAdmissionHoldsItsPlan(t *testing.T) {
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
	gen := workload.NewGenerator(cfg, 7)
	items := make([]BatchItem, 3)
	for i := range items {
		items[i] = BatchItem{Ctx: trace.Context{TraceID: uint64(i + 1)}, Req: FromWorkload(gen.Next())}
	}
	same := func(what string, got, want [][]float32) {
		t.Helper()
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: request %d scores %v, control %v", what, i, got[i], want[i])
			}
		}
	}
	f := newShardedFixture(t, m, planA, EngineConfig{}, nil)
	for _, sh := range f.shards {
		for id, tab := range m.Tables {
			sh.InstallTable(id, 0, tab)
		}
	}
	want, err := f.eng.ExecuteBatch(items)
	if err != nil {
		t.Fatal(err)
	}

	a, err := f.eng.Admit(items)
	if err != nil {
		t.Fatal(err)
	}
	var ended atomic.Bool
	rerouted := make(chan error, 1)
	go func() {
		err := f.eng.Reroute(planB)
		if err == nil && !ended.Load() {
			err = errors.New("Reroute returned while an admission under the old plan was outstanding")
		}
		rerouted <- err
	}()
	// Once the new plan is in, give a Reroute that did not wait time
	// enough to return.
	for f.eng.Plan() != planB {
		runtime.Gosched()
	}
	select {
	case err := <-rerouted:
		t.Fatalf("Reroute returned (%v) while the admission was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	ended.Store(true)
	got, err := a.Execute()
	if err != nil {
		t.Fatal(err)
	}
	same("admitted under the old plan", got, want)
	if err := <-rerouted; err != nil {
		t.Fatal(err)
	}
	got, err = f.eng.ExecuteBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	same("after the reroute", got, want)
}

// TestCoalescedSpanStartsAtAdmission: a coalesced request's
// rank/coalesced span starts at admission, so every span of the
// execution — the hash, each sparse call, its decode, the dense work —
// lies inside it, trace.AnalyzeOne anchors the request's breakdown on it,
// and the breakdown's dense and embedded time, one timeline in a
// one-batch execution, sum to no more than it.
func TestCoalescedSpanStartsAtAdmission(t *testing.T) {
	cfg := smallModel("DRM1")
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newShardedFixture(t, m, plan, EngineConfig{BatchSize: 1 << 20}, nil)
	gen := workload.NewGenerator(cfg, 8)
	items := make([]BatchItem, 3)
	for i := range items {
		items[i] = BatchItem{Ctx: trace.Context{TraceID: uint64(i + 1)}, Req: FromWorkload(gen.Next())}
	}
	a, err := f.eng.Admit(items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(); err != nil {
		t.Fatal(err)
	}

	// The execution's spans carry its first request's trace.
	var spans []trace.Span
	var coalesced trace.Span
	for _, s := range f.eng.cfg.Recorder.Spans() {
		if s.TraceID != items[0].Ctx.TraceID {
			continue
		}
		spans = append(spans, s)
		if s.Name == "rank/coalesced" {
			coalesced = s
		}
	}
	if coalesced.Name == "" {
		t.Fatal("no rank/coalesced span")
	}
	start, end := coalesced.Start, coalesced.Start.Add(coalesced.Dur)
	calls := 0
	for _, s := range spans {
		if s.Layer == trace.LayerRPCCall {
			calls++
		}
		if s.Start.Before(start) || s.Start.Add(s.Dur).After(end) {
			t.Errorf("span %s (%v + %v) is not inside rank/coalesced (%v + %v)", s.Name, s.Start, s.Dur, start, coalesced.Dur)
		}
	}
	if calls != plan.NumShards {
		t.Fatalf("%d sparse call spans, want %d", calls, plan.NumShards)
	}
	b, ok := trace.AnalyzeOne(spans, "main")
	if !ok || b.E2E != coalesced.Dur {
		t.Fatalf("breakdown anchored at %v (ok %v), want rank/coalesced's %v", b.E2E, ok, coalesced.Dur)
	}
	if b.DenseOps == 0 || b.DenseOps+b.EmbeddedPortion > b.E2E {
		t.Errorf("dense %v + embedded %v, against the request's %v", b.DenseOps, b.EmbeddedPortion, b.E2E)
	}
}
