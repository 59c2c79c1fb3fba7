package core

import (
	"path/filepath"
	"testing"

	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
)

// BenchmarkShardBoot compares the two ways a sparse shard comes up:
// regenerating its tables from the model definition (build parameters,
// encode tiers) versus memory-mapping a v2 shard file exported ahead of
// time. The CI bench gate asserts mmap stays strictly faster — that
// ordering is the entire point of the persistent format, and a change
// that quietly forces the mmap path through a heap decode would pass a
// plain ns/op gate on a fast runner but fail the ordering.
func BenchmarkShardBoot(b *testing.B) {
	cfg := model.DRM2()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 2048
	}
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	tier := &TierConfig{Plan: uniformTiers(&cfg, sharding.PrecisionInt8)}
	path := filepath.Join(b.TempDir(), "bench.shard1")
	if err := WriteShardFile(path, m, plan, 1, tier.Plan); err != nil {
		b.Fatal(err)
	}

	b.Run("regen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The regenerate path pays model materialization plus the
			// per-shard image: encode, write and map — what a shard server
			// does when it boots without a shard file.
			fresh := model.Build(cfg)
			recs := []*trace.Recorder{trace.NewRecorder("bench", 64), trace.NewRecorder("bench", 64)}
			shards, err := MaterializeShardsTiered(fresh, plan, recs, tier)
			if err != nil {
				b.Fatal(err)
			}
			closeShards(shards)
		}
	})

	b.Run("mmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sh, shard, closer, err := OpenShardFile(path, trace.NewRecorder("bench", 64))
			if err != nil {
				b.Fatal(err)
			}
			if shard != 1 {
				b.Fatalf("opened shard %d", shard)
			}
			sh.SetTier(tier)
			if err := closer.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
