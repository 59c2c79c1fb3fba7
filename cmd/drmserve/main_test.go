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

// args splits a command line; peers hold no spaces.
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

// TestParseRefusals: every command line no role could serve is refused
// before anything is built or dialled.
func TestParseRefusals(t *testing.T) {
	const peers4 = "-model DRM3 -strategy NSBP -shards 4 -peers sparse1=a:1,sparse2=b:2,sparse3=c:3"
	for _, tc := range []struct{ argv, want string }{
		{"-health-fails 2", "-health-fails without -hedge"},
		{"-model DRM3 -health-fails 2", "-health-fails without -hedge"},
		{"-model DRM3 -strategy NSBP -shards 4 -peers sparse1", `bad peer binding "sparse1"`},
		{peers4 + " -rebalance-every 1s", "-rebalance-every needs every shard in -peers; sparse4 missing"},
		{peers4 + " -publish-every 1s", "-publish-every needs every shard in -peers; sparse4 missing"},
		{peers4 + ",sparse4=d:4,sparse2=e:5 -rebalance-every 1s", "-rebalance-every does not support hedge replicas yet (sparse2 has 2 addresses)"},
		{"-model DRM3 -strategy hash", `unknown strategy "hash"`},
		{"-model DRM9", `unknown model "DRM9"`},
		{"-model DRM3 -strategy 1-shard -cold-precision int3", `unknown precision "int3"`},
		{"-model DRM3 -strategy 1-shard -cache-mb -1", "-cache-mb -1 < 0"},
		{"-role frontdoor", `unknown role "frontdoor"`},
		{"-role coserve", `unknown role "coserve"`},
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
