package cluster_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// TestFrontedBurstIdentity runs the benchmark's fronted deployment at test
// scale — DRM2 over four load-balanced shards with an int8 cold tier,
// Zipf-skewed rows, a 2 ms gather window, one caller sending bursts of
// four — where the frontend executes each group the moment it is
// admitted, side by side with the batch's other groups: every score must
// be byte-identical to a serial, unfronted control. CI runs it under
// -race.
func TestFrontedBurstIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50)
	plan, err := sharding.LoadBalanced(&cfg, 4, pooling)
	if err != nil {
		t.Fatal(err)
	}
	tier := &core.TierConfig{Plan: uniformTiers(&cfg, sharding.PrecisionInt8)}
	const bursts, burst = 12, 4
	gen := workload.NewGenerator(cfg, 31)
	gen.EnableRowSkew(1.2)
	stream := gen.GenerateBatch(bursts * burst)

	boot := func(front *frontend.Config) (*cluster.Cluster, *serve.Replayer) {
		cl, err := cluster.Boot(m, plan, cluster.Options{Seed: 11, Tier: tier, Frontend: front})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		client, err := cl.DialMain()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		return cl, serve.NewReplayer(client)
	}
	_, controlRep := boot(nil)
	want, res := controlRep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}

	fronted, rep := boot(&frontend.Config{BatchWait: 2 * time.Millisecond})
	for _, sh := range fronted.Shards() {
		if sh.TierSnapshot().Int8 == 0 {
			t.Fatalf("%s serves no int8 table", sh.ShardName)
		}
	}
	got := make([][]float32, len(stream))
	errs := make([]error, len(stream))
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for i := b * burst; i < (b+1)*burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _, errs[i] = rep.Send(stream[i])
			}()
		}
		wg.Wait()
	}
	for i := range stream {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		requireSameScores(t, want[i], got[i], "fronted burst", i)
	}
	if st := fronted.Frontend.Stats(); st.Completed != bursts*burst || st.MaxBatchRequests < 2 {
		t.Errorf("stats = %+v: every request completed, some burst coalesced", st)
	}
}
