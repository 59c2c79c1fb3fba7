package cluster_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// TestPublishChaosIdentity is the freshness control plane's chaos check:
// a replicated, tiered deployment replays a skewed scored stream from
// concurrent clients while a publisher hammers identity delta sets
// through the stage.commit epoch cutover, a live Rebalance migrates
// tables between shards, and a replica is then torn down and rebuilt
// from a surviving peer. Every score must stay byte-identical to an
// undisturbed control — a publish racing a migration may fail and retry
// (the endpoints moved under it), but it must never corrupt a lookup.
// Run under -race in CI, it doubles as the race sweep over epoch
// cutovers racing the lock-free read path, migration installs, hedged
// calls, and replica slot swaps.
func TestPublishChaosIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)

	boot := func() (*cluster.Cluster, *serve.Replayer) {
		pooling := workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50)
		plan, err := sharding.LoadBalanced(&cfg, 4, pooling)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.Boot(m, plan, cluster.Options{
			Seed: 11, Tier: tierFor(&cfg),
			SparseReplicas: 2, HedgeDelay: 25 * time.Millisecond,
		})
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

	// Heat on shard 1's tables gives the rebalancer real moves to make.
	newStream := func(cl *cluster.Cluster, n int) []*workload.Request {
		gen := workload.NewGenerator(cfg, 23)
		gen.EnableRowSkew(1.4)
		skew := make(map[int]float64)
		for _, id := range cl.Plan.Shards[0].Tables {
			skew[id] = 6
		}
		return workload.ApplySkew(gen.GenerateBatch(n), skew)
	}

	const n = 36
	const workers = 3

	// Control: the same deployment, replayed serially, untouched.
	control, rep := boot()
	stream := newStream(control, n)
	if warm := rep.RunSerial(stream[:8]); warm.Failed() > 0 {
		t.Fatal(warm.Errors[0])
	}
	want, res := rep.RunSerialScored(stream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}

	chaos, chaosRep := boot()
	if warm := chaosRep.RunSerial(newStream(chaos, n)[:8]); warm.Failed() > 0 {
		t.Fatal(warm.Errors[0])
	}
	chaosStream := newStream(chaos, n)

	// identityDelta republishes currently-served rows of the given
	// tables; after migration the publisher re-routes them to wherever
	// the tables live now. The storm uses one table per boot shard (the
	// publisher only streams to shards hosting delta rows, and a move
	// can collapse these picks onto fewer shards — fine mid-chaos); the
	// final all-tables delta deterministically reaches every store.
	identityDelta := func(version uint64, tables []int) *core.DeltaSet {
		ds := &core.DeltaSet{Version: version}
		for _, id := range tables {
			rows := []int32{0, 1, int32(cfg.Tables[id].Rows - 1)}
			ds.Tables = append(ds.Tables, core.TableDelta{
				TableID: id, Rows: rows, Data: sourceRows(m, id, rows),
			})
		}
		return ds
	}
	stormTables := oneTablePerShard(chaos.Plan)
	allTables := make([]int, len(cfg.Tables))
	for id := range allTables {
		allTables[id] = id
	}

	got := make([][][]float32, workers)
	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := chaos.DialMain()
			if err != nil {
				workerErrs[w] = err
				return
			}
			defer client.Close()
			rep := serve.NewReplayer(client)
			for i := w; i < len(chaosStream); i += workers {
				scores, _, err := rep.Send(chaosStream[i])
				if err != nil {
					workerErrs[w] = err
					return
				}
				got[w] = append(got[w], scores)
			}
		}(w)
	}

	// Publisher: back-to-back epoch cutovers for the whole chaos window.
	// Individual publishes may fail while the migration moves their
	// endpoints; those must abort cleanly and the next attempt proceeds.
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	var published, pubFailed int
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		version := uint64(0)
		for {
			select {
			case <-stopPub:
				return
			default:
			}
			version++
			if _, err := chaos.Publish(identityDelta(version, stormTables)); err != nil {
				pubFailed++
				continue
			}
			published++
		}
	}()

	// Chaos sequence under the scored traffic and the publish storm:
	// first a live migration, then a replica teardown + rebuild. (The
	// migrator refuses rebuilt stores, so the rebuild comes second; the
	// publisher embraces them — that's the point of the final publish.)
	report, rbErr := chaos.Rebalance(sharding.RebalanceOptions{MoveBudget: 6})
	var replaceErr error
	if rbErr == nil {
		chaos.KillReplica(0, 1)
		_, replaceErr = chaos.ReplaceReplica(0, 1)
	}

	wg.Wait()
	close(stopPub)
	pubWG.Wait()
	if rbErr != nil {
		t.Fatal(rbErr)
	}
	if replaceErr != nil {
		t.Fatal(replaceErr)
	}
	if !report.Moved() {
		t.Fatalf("rebalance against a 6x skew moved nothing: %v", report)
	}
	for w, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if published == 0 {
		t.Fatalf("no publish succeeded during the chaos window (%d failed attempts)", pubFailed)
	}

	// Byte-identity: every request's scores match the control's exactly,
	// wherever it landed relative to cutovers, moves, and the rebuild.
	for w := 0; w < workers; w++ {
		wi := 0
		for i := w; i < len(chaosStream); i += workers {
			requireSameScores(t, want[i], got[w][wi], "publish-chaos", i)
			wi++
		}
	}

	// With the dust settled, a publish must reach every distinct store —
	// including the rebuilt replica's, which no longer shares shard 1's
	// boot-time table store.
	final, err := chaos.Publish(identityDelta(chaos.PublishedVersion()+1, allTables))
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Events) != len(chaos.Plan.Shards)+1 {
		t.Fatalf("final publish hit %d endpoints, want %d (every shard + the rebuilt store)",
			len(final.Events), len(chaos.Plan.Shards)+1)
	}
	for _, sh := range chaos.Shards() {
		if sh.ModelVersion() != final.Version {
			t.Fatalf("%s at model version %d after final publish v%d", sh.ShardName, sh.ModelVersion(), final.Version)
		}
	}
	fin, res := chaosRep.RunSerialScored(chaosStream)
	if res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	for i := range fin {
		requireSameScores(t, want[i], fin[i], "post-chaos", i)
	}
}
