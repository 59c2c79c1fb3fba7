package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine-level closure of the kernel-dispatch identity contract: the
// micro-benchmarks and kerneltest sweeps prove each kernel in
// isolation; these tests prove the property survives composition — a
// full DRM scoring run (hashing, SLS pooling over quantized tiered
// tables, dense MLP stacks, feature interaction, migration streaming)
// is byte-identical whichever kernel family executed it.

// TestEngineScoresKernelIdentity scores the same workload draw with the
// generic and the vectorized kernels on a singular (unsharded) engine
// and requires bitwise-equal scores.
func TestEngineScoresKernelIdentity(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	cfg := tinyConfig()
	m := model.Build(cfg)
	req := FromWorkload(workload.NewGenerator(cfg, 17).Next())

	run := func(k tensor.Kernel) []float32 {
		tensor.SetKernel(k)
		rec := trace.NewRecorder("main", 1<<16)
		eng, err := NewEngine(m, sharding.Singular(&cfg), EngineConfig{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		scores, err := eng.Execute(trace.Context{TraceID: 1}, req)
		if err != nil {
			t.Fatal(err)
		}
		return scores
	}
	want := run(tensor.KernelGeneric)
	got := run(tensor.KernelVector)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("score counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("score %d: generic %08x, vector %08x",
				i, math.Float32bits(want[i]), math.Float32bits(got[i]))
		}
	}
}

// TestTieredMigrationKernelIdentity reuses the tiered-migration fixture
// (int8 cold tier + hot-row cache) and interleaves kernel switches with
// a mid-flight table migration: the cache is warmed under one kernel,
// rows stream under the other, and every replay — before, during, and
// after cutover, under either kernel — must serve byte-identical
// responses. This is the strongest end-to-end statement the harness
// makes: dispatch changes wall clock only, never a served byte.
func TestTieredMigrationKernelIdentity(t *testing.T) {
	defer tensor.SetKernel(tensor.KernelAuto)
	for _, prec := range []sharding.Precision{sharding.PrecisionInt8, sharding.PrecisionFP16} {
		t.Run(string(prec), func(t *testing.T) {
			f := newTieredMigrationFixture(t, prec, 1)
			src, dst := f.shards[0], f.shards[1]
			id := f.plan.Shards[0].Tables[0]
			ctx := trace.Context{TraceID: 23}
			body, moved := f.runRequest(t, 91), f.tableRequest(t, 91, id)

			// Baseline and cache warm-up under the generic kernels.
			tensor.SetKernel(tensor.KernelGeneric)
			want, err := src.Handle(ctx, MethodSparseRun, body)
			if err != nil {
				t.Fatal(err)
			}
			movedWant, err := src.Handle(ctx, MethodSparseRun, moved)
			if err != nil {
				t.Fatal(err)
			}

			// Replay with the vector kernels against the (generic-warmed)
			// cache: hits decode nothing, misses decode vectorized — both
			// must contribute the exact bytes the generic run produced.
			tensor.SetKernel(tensor.KernelVector)
			if got, err := src.Handle(ctx, MethodSparseRun, body); err != nil || !bytes.Equal(want, got) {
				t.Fatalf("vector replay diverged from generic baseline (err %v)", err)
			}

			// Migrate the table while the vector kernels are active: the
			// wire stream carries encoded rows verbatim, so the committed
			// copy must be kernel-independent too.
			f.migrateTable(t, id, 5)
			if got, err := src.Handle(ctx, MethodSparseRun, body); err != nil || !bytes.Equal(want, got) {
				t.Fatalf("vector read of the retained copy during cutover diverged (err %v)", err)
			}

			// Released at the source, the moved table is the destination's
			// freshly committed copy alone: under either kernel family it
			// answers with the source's generic bytes — the generic run
			// decoding against a migration performed under vector.
			releaseTable(t, src, handleCall(src), id)
			for _, k := range []tensor.Kernel{tensor.KernelGeneric, tensor.KernelVector} {
				tensor.SetKernel(k)
				requireMoved(t, src, dst, moved, movedWant)
			}
		})
	}
}
