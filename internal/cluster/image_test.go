package cluster_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// imageMappings counts this process's mappings of files under dir; the
// test skips where /proc/self/maps cannot be read.
func imageMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no mapping table to read: %v", err)
	}
	return strings.Count(string(maps), dir+string(os.PathSeparator))
}

// TestImageMappingsOutliveTheirServers: a tiered boot's shards serve
// mapped images, and an image is released only once nothing can serve
// it. A replica replaced by a peer rebuild serves a private store and
// leaves the shared one, image and all, to the replica still over it;
// stopping that last server keeps the image too, and Cluster.Close
// releases every one.
func TestImageMappingsOutliveTheirServers(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOptions()
	opts.Tier = &core.TierConfig{Plan: uniformTiers(&cfg, sharding.PrecisionInt8)}
	cl, err := cluster.Boot(m, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	t.Cleanup(func() {
		if !closed {
			cl.Close()
		}
	})
	client, err := cl.DialMain()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rep := serve.NewReplayer(client)
	stream := workload.NewGenerator(cfg, 5).GenerateBatch(6)
	want, res := rep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	mapped := func(when string, n int) {
		t.Helper()
		if got := imageMappings(t, dir); got != n {
			t.Fatalf("%s: %d image mappings, want %d", when, got, n)
		}
	}
	mapped("after boot", plan.NumShards)

	if err := cl.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReplaceReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if store, err := cl.ReplicaStore(0, 0); err != nil || store == cl.Shards()[0] {
		t.Fatalf("the replacement serves the shared store (err %v)", err)
	}
	mapped("after a replace", plan.NumShards)
	got, res := rep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range want {
		requireSameScores(t, want[i], got[i], "replaced", i)
	}

	if err := cl.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	mapped("with no server over the shared store", plan.NumShards)
	cl.Close()
	closed = true
	mapped("after Close", 0)
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("temp dir holds %v (err %v)", entries, err)
	}
}

// TestBootRefusesAnotherEncoding: a shard file whose stored encoding is
// not the tier plan's fails the boot; no shard re-encodes.
func TestBootRefusesAnotherEncoding(t *testing.T) {
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exportShardDir(t, m, plan, uniformTiers(&cfg, sharding.PrecisionInt8), dir)
	for _, prec := range []sharding.Precision{sharding.PrecisionFP32, sharding.PrecisionFP16} {
		tier := &core.TierConfig{CacheMB: 1, Plan: uniformTiers(&cfg, prec)}
		cl, err := cluster.Boot(m, plan, cluster.Options{Tier: tier, ShardDir: dir})
		if err == nil {
			cl.Close()
			t.Fatalf("int8 files booted under a %s plan", prec)
		}
		if !strings.Contains(err.Error(), "tier plan says") {
			t.Fatalf("%s plan: %v", prec, err)
		}
	}
}
