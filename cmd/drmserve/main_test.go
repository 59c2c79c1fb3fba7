package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontend"
	"repro/internal/sharding"
)

// args splits a command line; tenant specs and peers hold no spaces.
func args(s string) []string { return strings.Fields(s) }

// TestParseSingleModelRoles: argv → the cluster.Options, plan and peers
// the role assemblers are handed.
func TestParseSingleModelRoles(t *testing.T) {
	c, err := parse(args("-role main -model DRM3 -strategy NSBP -shards 4 -listen 127.0.0.1:7100 " +
		"-peers sparse1=a:1,sparse2=b:2,sparse1=c:3,sparse3=d:4,sparse4=e:5 " +
		"-batch-wait 3ms -max-queue 128 -sla 500ms -hedge 100ms -health-fails 3 -health-probe 1s " +
		"-max-inflight 64 -trace-sample 10 -publish-every 500ms -publish-rows 8 -metrics-addr :9100"))
	if err != nil {
		t.Fatal(err)
	}
	wantOpts := cluster.Options{
		Frontend:        &frontend.Config{BatchWait: 3 * time.Millisecond, MaxQueue: 128, Budget: 500 * time.Millisecond},
		HedgeDelay:      100 * time.Millisecond,
		HealthFails:     3,
		HealthProbe:     time.Second,
		MainMaxInFlight: 64,
		TraceSample:     10,
		SpanCapacity:    1, // run never reads a recorder back
	}
	if !reflect.DeepEqual(c.opts, wantOpts) {
		t.Errorf("opts = %+v (frontend %+v)\nwant %+v", c.opts, c.opts.Frontend, wantOpts)
	}
	wantPeers := map[string][]string{"sparse1": {"a:1", "c:3"}, "sparse2": {"b:2"}, "sparse3": {"d:4"}, "sparse4": {"e:5"}}
	if !reflect.DeepEqual(c.peers, wantPeers) {
		t.Errorf("peers = %v, want %v", c.peers, wantPeers)
	}
	if c.role != "main" || c.listen != "127.0.0.1:7100" || c.model.Name != "DRM3" ||
		c.plan.Strategy != sharding.StrategyNSBP || c.plan.NumShards != 4 ||
		c.publishEvery != 500*time.Millisecond || c.publishRows != 8 || c.moveBudget != 4 || c.metricsAddr != ":9100" {
		t.Errorf("config = %+v", c)
	}

	// The sparse role: shard number, shard directory and the tier config,
	// and no frontend when no frontend flag is set.
	c, err = parse(args("-role sparse -shard 2 -model drm3 -strategy NSBP -shards 4 -shard-dir /tmp/shards " +
		"-cache-mb 4 -cold-precision int8 -netsim"))
	if err != nil {
		t.Fatal(err)
	}
	if c.shard != 2 || !c.netsim || c.opts.ShardDir != "/tmp/shards" || c.opts.Frontend != nil || c.model.Name != "DRM3" || c.opts.SpanCapacity != 1 {
		t.Errorf("config = %+v", c)
	}
	if c.opts.Tier == nil || c.opts.Tier.CacheMB != 4 || c.opts.Tier.Plan == nil {
		t.Errorf("tier = %+v", c.opts.Tier)
	}

	// Defaults: main role, DRM1 on two load-balanced shards, nothing tiered.
	c, err = parse(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.role != "main" || c.model.Name != "DRM1" || c.plan.Strategy != sharding.StrategyLoad || c.plan.NumShards != 2 ||
		!reflect.DeepEqual(c.opts, cluster.Options{SpanCapacity: 1}) || len(c.peers) != 0 {
		t.Errorf("default config = %+v", c)
	}
}

// TestParseCoserve: argv → cluster.FleetOptions and []cluster.TenantSpec;
// a spec's unset keys inherit the process-wide flags.
func TestParseCoserve(t *testing.T) {
	c, err := parse([]string{"-role", "coserve",
		"-model", "drm3a=DRM3:shards=4,strategy=NSBP,replicas=2,slots=3,min=1,max=3,sla=6ms",
		"-model", "DRM3:queue=32,batch-wait=2ms,batch-reqs=4",
		"-strategy", "1-shard", "-sla", "1s", "-batch-wait", "1ms", "-capacity", "10", "-elastic-every", "500ms",
		"-hedge", "50ms", "-health-fails", "2", "-max-inflight", "9", "-listen", "127.0.0.1:7200",
		"-scale", "drm3a=3", "-scale-after", "3s"})
	if err != nil {
		t.Fatal(err)
	}
	wantFleet := cluster.FleetOptions{
		Capacity: 10, Interval: 500 * time.Millisecond,
		HedgeDelay: 50 * time.Millisecond, HealthFails: 2,
		FrontMaxInFlight: 9, Listen: "127.0.0.1:7200",
	}
	if !reflect.DeepEqual(c.fleet, wantFleet) {
		t.Errorf("fleet = %+v\nwant %+v", c.fleet, wantFleet)
	}
	if c.scaleModel != "drm3a" || c.scaleTo != 3 || c.scaleAfter != 3*time.Second {
		t.Errorf("scale = %s=%d after %v", c.scaleModel, c.scaleTo, c.scaleAfter)
	}
	if len(c.tenants) != 2 {
		t.Fatalf("tenants = %+v", c.tenants)
	}
	a, b := c.tenants[0], c.tenants[1]
	wantA := cluster.TenantSpec{
		Name: "drm3a", Plan: a.Plan,
		Frontend:        frontend.Config{BatchWait: time.Millisecond, Budget: 6 * time.Millisecond},
		InitialReplicas: 2, SlotReplicas: 3, MinReplicas: 1, MaxReplicas: 3,
	}
	if !reflect.DeepEqual(a, wantA) || a.Plan.ModelName != "DRM3" || a.Plan.Strategy != sharding.StrategyNSBP || a.Plan.NumShards != 4 {
		t.Errorf("tenant a = %+v (plan %+v)", a, a.Plan)
	}
	wantB := cluster.TenantSpec{
		Name: "DRM3", Plan: b.Plan,
		Frontend: frontend.Config{BatchWait: 2 * time.Millisecond, MaxBatchRequests: 4, MaxQueue: 32, Budget: time.Second},
	}
	if !reflect.DeepEqual(b, wantB) || b.Plan.Strategy != sharding.StrategyOneShard || b.Plan.NumShards != 1 {
		t.Errorf("tenant b = %+v (plan %+v)", b, b.Plan)
	}
}

// TestParseRefusals: every command line no role could serve is refused
// before anything is built or dialled.
func TestParseRefusals(t *testing.T) {
	const peers4 = "-model DRM3 -strategy NSBP -shards 4 -peers sparse1=a:1,sparse2=b:2,sparse3=c:3"
	for _, tc := range []struct{ argv, want string }{
		{"-health-fails 2", "-health-fails without -hedge"},
		{"-role coserve -model DRM3 -health-fails 2", "-health-fails without -hedge"},
		{"-model DRM3 -strategy NSBP -shards 4 -peers sparse1", `bad peer binding "sparse1"`},
		{peers4 + " -rebalance-every 1s", "-rebalance-every needs every shard in -peers; sparse4 missing"},
		{peers4 + " -publish-every 1s", "-publish-every needs every shard in -peers; sparse4 missing"},
		{peers4 + ",sparse4=d:4,sparse2=e:5 -rebalance-every 1s", "-rebalance-every does not support hedge replicas yet (sparse2 has 2 addresses)"},
		{"-model DRM3 -strategy hash", `unknown strategy "hash"`},
		{"-model DRM9", `unknown model "DRM9"`},
		{"-role coserve -model t=DRM9", `unknown model "DRM9"`},
		{"-role coserve -model DRM3:strategy=hash", `unknown strategy "hash"`},
		{"-role coserve -model DRM3:color=red", `unknown option "color"`},
		{"-role coserve -model DRM3:sla", `bad option "sla"`},
		{"-role coserve -model =DRM3", "has no name"},
		{"-role coserve", "needs at least one -model"},
		{"-model DRM3 -strategy 1-shard -cold-precision int3", `unknown precision "int3"`},
		{"-model DRM3 -strategy 1-shard -cache-mb -1", "-cache-mb -1 < 0"},
		{"-role coserve -model DRM3 -scale DRM3", `-scale "DRM3": want MODEL=N`},
		{"-role coserve -model DRM3 -scale DRM3=0", "bad replica count"},
		{"-role frontdoor", `unknown role "frontdoor"`},
		{"-shard-file x.shard1", "flag provided but not defined"},
	} {
		c, err := parse(args(tc.argv))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parse(%q) = %+v, %v; want an error containing %q", tc.argv, c, err, tc.want)
		}
	}
	// The control loop's peer rules bind the main role of a distributed
	// plan only.
	for _, argv := range []string{
		"-role sparse " + peers4 + " -rebalance-every 1s",
		"-model DRM3 -strategy singular -rebalance-every 1s -publish-every 1s",
		peers4 + ",sparse4=d:4,sparse2=e:5 -publish-every 1s -hedge 10ms",
	} {
		if _, err := parse(args(argv)); err != nil {
			t.Errorf("parse(%q): %v", argv, err)
		}
	}
}
