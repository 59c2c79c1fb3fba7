package cluster_test

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// heapLive is the heap in use after a full collection.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC() // the first cycle's sweep frees what it marked dead
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRecordersCostWhatTheyRecord: a role's DRAM is the paper's scarce
// resource, so a deployment's five recorders hold memory for the spans
// they were given and no more — 50 requests' worth after 50 requests
// (the parent held 150 MiB from boot), and a main recorder driven to a
// capacity of 1<<18 spans under 13 MiB (the parent: 30 MiB). Boot keeps
// one span by default; a caller that reads spans back asks for more.
func TestRecordersCostWhatTheyRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("boots DRM1")
	}
	cfg := model.ByName("DRM1")
	plan, err := sharding.LoadBalanced(&cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(model.Build(cfg), plan, cluster.Options{Seed: 1, SpanCapacity: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 1)
	for i := 0; i < 50; i++ {
		if _, err := cl.Engine.Execute(trace.Context{TraceID: uint64(i + 1)}, core.FromWorkload(gen.Next())); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the recorders (the collector holds all five) and nothing else
	// of the deployment, so dropping them is the only difference between
	// two readings.
	recorders, mainRec := cl.Collector, cl.MainRec
	if n := len(recorders.Gather()); n < 50*20 || recorders.TotalDrops() != 0 {
		t.Fatalf("%d spans kept, %d dropped after 50 requests", n, recorders.TotalDrops())
	}
	cl.Close() // the last use of cl: the deployment is garbage from here
	after50 := heapLive()

	span := trace.Span{TraceID: 1, Layer: trace.LayerOp, Kind: "Dense", Net: "net1", Name: "fc", Start: mainRec.Now()}
	for mainRec.Drops() == 0 {
		mainRec.Record(span)
	}
	if mainRec.Len() != 1<<18 {
		t.Fatalf("main recorder full at %d spans, want its capacity 1<<18", mainRec.Len())
	}
	full := heapLive()
	runtime.KeepAlive(recorders)
	runtime.KeepAlive(mainRec) // and garbage from here
	none := heapLive()

	const MiB = 1 << 20
	if got := int64(after50 - none); got > 2*MiB {
		t.Errorf("five recorders retain %.1f MiB after 50 requests, want under 2", float64(got)/MiB)
	}
	if got := int64(full - none); got > 13*MiB {
		t.Errorf("a full main recorder (and four sparse ones) retain %.1f MiB, want at most 13", float64(got)/MiB)
	}
	t.Logf("recorders retain %.2f MiB after 50 requests, %.2f MiB with the main one full",
		float64(int64(after50-none))/MiB, float64(int64(full-none))/MiB)
}
