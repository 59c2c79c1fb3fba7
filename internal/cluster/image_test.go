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

// TestImageMappingsOutliveTheirServers: a tiered boot's shards serve
// images built in anonymous memory (nothing lands under TMPDIR), and an
// image is released only once nothing can serve it. A replica replaced
// by a peer rebuild serves a private store and leaves the shared one,
// image and all, to the replica still over it; stopping that last server
// keeps the image too, and Cluster.Close releases every one. A store
// drops its tables when it releases its image, so a store that still
// holds its tables still holds its image.
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
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("temp dir holds %v (err %v)", entries, err)
	}
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
	stores := cl.Shards()
	held := func(when string, want bool) {
		t.Helper()
		for _, st := range stores {
			if got := st.NumTables() > 0; got != want {
				t.Fatalf("%s: %s holds its image: %v, want %v", when, st.ShardName, got, want)
			}
		}
	}
	held("after boot", true)

	if err := cl.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReplaceReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if store, err := cl.ReplicaStore(0, 0); err != nil || store == stores[0] {
		t.Fatalf("the replacement serves the shared store (err %v)", err)
	}
	held("after a replace", true)
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
	held("with no server over the shared store", true)
	cl.Close()
	closed = true
	held("after Close", false)
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
