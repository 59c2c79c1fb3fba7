package cluster_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkEngineSingularDRM1 measures raw engine throughput (no RPC
// front door): one full DRM1 ranking request per iteration, each
// converted from its generated form once, before the clock starts, as an
// in-process caller converts it. allocs/op is gated by cmd/benchcheck: a
// dense path that stops reusing its workspace storage shows there.
func BenchmarkEngineSingularDRM1(b *testing.B) {
	cfg := model.ByName("DRM1")
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<22)
	eng, _ := core.NewEngine(m, sharding.Singular(&cfg), core.EngineConfig{Recorder: rec})
	gen := workload.NewGenerator(cfg, 1)
	reqs := make([]*core.RankingRequest, 20)
	for i := range reqs {
		reqs[i] = core.FromWorkload(gen.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(trace.Context{TraceID: uint64(i + 1)}, reqs[i%20]); err != nil {
			b.Fatal(err)
		}
		if rec.Len() > 1<<21 {
			rec.Reset()
		}
	}
}
