package cluster_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

func bootCoserveFleet(t *testing.T, m *model.Model, cfg model.Config, reg *obs.Registry) *cluster.Fleet {
	t.Helper()
	planA, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	planB, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := cluster.BootFleet([]cluster.TenantSpec{
		{Name: "alpha", Model: m, Plan: planA, InitialReplicas: 2, SlotReplicas: 3},
		{Name: "beta", Model: m, Plan: planB, InitialReplicas: 1, SlotReplicas: 3},
	}, cluster.FleetOptions{
		Capacity:    10, // headroom so forced grows never pair-shrink
		Seed:        23,
		HedgeDelay:  25 * time.Millisecond,
		HealthFails: 2,
		HealthProbe: 60 * time.Millisecond,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl
}

// TestCoServeChaosIdentity is the co-serving race/identity sweep: two
// tenants take scored traffic through the shared front door while the
// fleet live-grows and live-shrinks their replica sets (snapshot
// rebuilds and drain-reclaims under fire), and every response on both
// tenants must stay byte-identical to a dedicated static deployment.
// Run under -race in CI it doubles as the data-race sweep over the
// scheduler's slot swaps, gate re-pricing, and hedged calls.
func TestCoServeChaosIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	streamA := workload.NewGenerator(cfg, 41).GenerateBatch(24)
	streamB := workload.NewGenerator(cfg, 43).GenerateBatch(24)

	// Static control: one dedicated replicated cluster, no scaling.
	control, controlRep := bootFault(t, m, cfg)
	defer control.Close()
	wantA, res := controlRep.RunSerialScored(streamA)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	wantB, res := controlRep.RunSerialScored(streamB)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}

	reg := obs.NewRegistry()
	fl := bootCoserveFleet(t, m, cfg, reg)

	drive := func(tenant string, stream []*workload.Request, want [][]float32, rounds int) func() error {
		client, err := fl.DialFront()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		rep := serve.NewReplayerFor(client, tenant)
		return func() error {
			for round := 0; round < rounds; round++ {
				for i, req := range stream {
					got, _, err := rep.Send(req)
					if err != nil {
						return err
					}
					requireSameScores(t, want[i], got, "coserve/"+tenant, i)
				}
			}
			return nil
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); errs <- drive("alpha", streamA, wantA, 2)() }()
	go func() { defer wg.Done(); errs <- drive("beta", streamB, wantB, 2)() }()

	// Scale cycle under fire: grow beta (snapshot rebuild), shrink
	// alpha (drain + reclaim), grow alpha back.
	time.Sleep(30 * time.Millisecond)
	if err := fl.ForceScale("beta", 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := fl.ForceScale("alpha", 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := fl.ForceScale("alpha", 2); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The cycle really moved capacity: three timeline events, grows
	// booking streamed snapshot bytes.
	tl := fl.Timeline()
	if len(tl) != 3 {
		t.Fatalf("timeline has %d events, want 3: %+v", len(tl), tl)
	}
	grows := 0
	for _, ev := range tl {
		if ev.To > ev.From {
			grows++
			if ev.RebuildBytes == 0 {
				t.Errorf("grow %s %d->%d streamed no bytes", ev.Model, ev.From, ev.To)
			}
		}
	}
	if grows != 2 {
		t.Errorf("timeline has %d grows, want 2: %+v", grows, tl)
	}

	// Entitlements track the final allocation (alpha back to 2 steps x 2
	// shards, beta at 2 x 2).
	if u := fl.Multi.Units("alpha"); u != 4 {
		t.Errorf("alpha units = %v, want 4", u)
	}
	if u := fl.Multi.Units("beta"); u != 4 {
		t.Errorf("beta units = %v, want 4", u)
	}
	if got := fl.TenantCluster("beta").ActiveReplicas(); got != 2 {
		t.Errorf("beta active replicas = %d, want 2", got)
	}

	// Per-model obs namespaces: both tenants' serving stages and the
	// scheduler's gauges land under model=<name> labels in one shared
	// snapshot; the fleet-wide move counter stays unlabeled.
	snap := reg.Snapshot()
	for _, name := range []string{
		"coserve.active_replicas{model=alpha}",
		"coserve.units{model=beta}",
		"frontend.completed{model=alpha}",
		"frontend.completed{model=beta}",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("snapshot is missing %s", name)
		}
	}
	if snap.Gauges["frontend.completed{model=alpha}"] != int64(2*len(streamA)) {
		t.Errorf("alpha completed = %d, want %d", snap.Gauges["frontend.completed{model=alpha}"], 2*len(streamA))
	}
	if snap.Counters["coserve.moves"] != 3 {
		t.Errorf("coserve.moves = %d, want 3", snap.Counters["coserve.moves"])
	}
}

// TestFleetElasticStepReallocates drives the planner end to end without
// forced moves: a saturated tenant with free fleet headroom must be
// granted a replica step by Step(), and an idle tenant must eventually
// donate its excess back.
func TestFleetElasticStepReallocates(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	reg := obs.NewRegistry()
	fl := bootCoserveFleet(t, m, cfg, reg)

	// Synthesize pressure: flood beta's queue via open-loop traffic so
	// its queue fraction crosses the scale-up threshold during the
	// window, then Step.
	client, err := fl.DialFront()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rep := serve.NewReplayerFor(client, "beta")
	stream := workload.NewGenerator(cfg, 5).GenerateBatch(160)

	// The flood repeats until the planner has acted: one pass of the
	// stream lasts 40 ms, less than a single Step that first reclaims the
	// idle tenant (a 50 ms drain grace).
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				rep.RunOpenLoop(stream, 4000)
			}
		}
	}()
	grown := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fl.Step()
		if fl.TenantCluster("beta").ActiveReplicas() > 1 {
			grown = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	<-done
	if !grown {
		t.Fatalf("elastic step never grew the hot tenant: timeline %+v", fl.Timeline())
	}

	// With traffic gone, repeated passes (cooldowns expiring in between)
	// must reclaim beta back toward its floor.
	deadline = time.Now().Add(5 * time.Second)
	for fl.TenantCluster("beta").ActiveReplicas() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle tenant never reclaimed: timeline %+v", fl.Timeline())
		}
		time.Sleep(50 * time.Millisecond)
		fl.Step()
	}
}
