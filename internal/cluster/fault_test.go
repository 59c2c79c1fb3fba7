package cluster_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/workload"
)

// faultOptions is the replicated, health-ejecting deployment the fault
// tests drive.
func faultOptions() cluster.Options {
	return cluster.Options{
		Seed:           11,
		SparseReplicas: 2,
		// The delay must sit well above per-call service time (the hedged
		// caller's strikes and timeouts are multiples of it), including
		// under -race.
		HedgeDelay:  25 * time.Millisecond,
		HealthFails: 2,
		HealthProbe: 60 * time.Millisecond,
	}
}

func bootFault(t *testing.T, m *model.Model, cfg model.Config) (*cluster.Cluster, *serve.Replayer) {
	t.Helper()
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.Boot(m, plan, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	client, err := cl.DialMain()
	if err != nil {
		cl.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cl, serve.NewReplayer(client)
}

// TestReplicaFailureChaosIdentity is the degraded-fleet chaos check: a
// replica (the preferred primary of shard 1) is killed mid-scored-
// traffic, health ejection routes around it, a replacement rebuilds from
// the surviving peer and rejoins — and every score along the way must be
// byte-identical to an unfailed control deployment. After both clusters
// close, the process must settle back to its starting goroutine count:
// no request handler, prober, or blackholed hedge wait may leak. Run
// under -race in CI, it doubles as the race sweep over slot swaps racing
// hedged calls and health reporting.
func TestReplicaFailureChaosIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	stream := workload.NewGenerator(cfg, 31).GenerateBatch(30)

	goroutinesBefore := runtime.NumGoroutine()

	func() {
		// Control: identical deployment, no failures.
		control, controlRep := bootFault(t, m, cfg)
		defer control.Close()
		want, res := controlRep.RunSerialScored(stream)
		if res.Failed() > 0 {
			t.Fatal(res.Errors[0])
		}

		// Chaos: same stream; kill shard 1's preferred primary a third of
		// the way in, replace it (rebuild from the surviving peer) two
		// thirds in, and let it rejoin via a probation probe.
		chaos, chaosRep := bootFault(t, m, cfg)
		defer chaos.Close()
		third := len(stream) / 3
		for i, req := range stream {
			switch i {
			case third:
				if err := chaos.KillReplica(0, 0); err != nil {
					t.Fatal(err)
				}
			case 2 * third:
				st, err := chaos.ReplaceReplica(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if st.Tables == 0 || st.Bytes == 0 {
					t.Fatalf("rebuild streamed nothing: %+v", st)
				}
				// The replacement serves a store rebuilt byte-identically
				// from the peer.
				store, err := chaos.ReplicaStore(0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if store == chaos.Shards()[0] {
					t.Fatal("replacement still serves the shared store")
				}
				if store.Bytes() != chaos.Shards()[0].Bytes() {
					t.Fatalf("rebuilt store holds %d bytes, peer %d",
						store.Bytes(), chaos.Shards()[0].Bytes())
				}
			}
			got, _, err := chaosRep.Send(req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			requireSameScores(t, want[i], got, "fault", i)
		}

		// The dead window must actually have been survived by ejection:
		// the killed replica took strikes and left the rotation.
		snap := chaos.HealthSnapshots()["sparse1"]
		if len(snap.Replicas) != 2 {
			t.Fatalf("health snapshot = %+v", snap)
		}
		if snap.Replicas[0].Ejections == 0 {
			t.Error("killed primary was never ejected")
		}

		// Give the prober a chance to re-admit the replacement, then
		// prove it serves: the rebuilt replica must answer scored traffic
		// identically once recovered.
		deadline := time.Now().Add(2 * time.Second)
		for {
			got, _, err := chaosRep.Send(stream[0])
			if err != nil {
				t.Fatal(err)
			}
			requireSameScores(t, want[0], got, "recovered", 0)
			s := chaos.HealthSnapshots()["sparse1"]
			if s.Ejected == 0 && s.Replicas[0].Recoveries > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replacement never rejoined the rotation: %+v", s)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// Goroutine-leak check: both clusters (and their clients) are closed;
	// readLoops, servers, and hedge waits must all unwind. Settle-loop
	// because connection teardown is asynchronous.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after close\n%s",
				goroutinesBefore, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReviveReplicaRejoins: a killed replica whose server comes back
// (same store — the process restarted) is re-admitted by a probation
// probe without a rebuild.
func TestReviveReplicaRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	chaos, rep := bootFault(t, m, cfg)
	defer chaos.Close()
	stream := workload.NewGenerator(cfg, 7).GenerateBatch(12)

	if res := rep.RunSerial(stream[:4]); res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	// Kill shard 2's preferred primary: every request's primary pick
	// lands on the silent replica until it is ejected, so strikes — and
	// later probation probes — are deterministic.
	if err := chaos.KillReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := chaos.KillReplica(1, 0); err == nil {
		t.Fatal("double kill must error")
	}
	if res := rep.RunSerial(stream[4:8]); res.Failed() > 0 {
		t.Fatal(res.Errors[0])
	}
	if s := chaos.HealthSnapshots()["sparse2"]; s.Replicas[0].Ejections == 0 {
		t.Fatalf("killed primary was never ejected: %+v", s)
	}
	if err := chaos.ReviveReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := chaos.ReviveReplica(1, 0); err == nil {
		t.Fatal("double revive must error")
	}
	// Drive traffic until the prober re-admits it — recovery must be a
	// real probe success, not a vacuous never-ejected pass.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if res := rep.RunSerial(stream[8:]); res.Failed() > 0 {
			t.Fatal(res.Errors[0])
		}
		if s := chaos.HealthSnapshots()["sparse2"]; s.Ejected == 0 && s.Replicas[0].Recoveries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived replica never rejoined: %+v", chaos.HealthSnapshots()["sparse2"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplacedTwiceDropsFirstRebuild: a replica replaced twice closes
// and forgets the private store its second rebuild supersedes, so the
// first rebuilt store becomes unreachable while the cluster still runs
// instead of living until Close.
func TestReplacedTwiceDropsFirstRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)
	chaos, _ := bootFault(t, m, cfg)
	defer chaos.Close()

	replace := func() {
		t.Helper()
		if err := chaos.KillReplica(0, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := chaos.ReplaceReplica(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	replace()
	freed := make(chan struct{})
	func() {
		first, err := chaos.ReplicaStore(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(first, func(*core.SparseShard) { close(freed) })
	}()
	replace()

	// Finalizers run after the collection that finds the object dead, and
	// a closed server's connections unwind asynchronously: settle-loop.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the first rebuilt store is still reachable after a second replace")
		}
	}
}

// TestReplaceReplicaGuards pins the orchestration guards:
// replacing a live replica, addressing a bogus replica, and rebuilding
// with no surviving peer must all error cleanly.
func TestReplaceReplicaGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := smallModel()
	m := model.Build(cfg)

	// Health ejection without a hedge timer cannot detect silence: the
	// configuration is rejected at boot.
	badOpts := faultOptions()
	badOpts.HedgeDelay = 0
	plan, err := sharding.CapacityBalanced(&cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Boot(m, plan, badOpts); err == nil {
		t.Error("HealthFails without HedgeDelay must be rejected")
	}

	chaos, _ := bootFault(t, m, cfg)
	defer chaos.Close()

	if _, err := chaos.ReplaceReplica(0, 0); err == nil {
		t.Error("replacing a live replica must error")
	}
	if _, err := chaos.ReplaceReplica(0, 9); err == nil {
		t.Error("bogus replica index must error")
	}
	if _, err := chaos.ReplaceReplica(9, 0); err == nil {
		t.Error("bogus shard index must error")
	}
	if err := chaos.KillReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := chaos.KillReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.ReplaceReplica(0, 0); err == nil {
		t.Error("rebuild with no surviving peer must error")
	}
	if err := chaos.ReviveReplica(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.ReplaceReplica(0, 0); err != nil {
		t.Fatalf("replace with a revived peer: %v", err)
	}
	// A replaced replica serves a private store; online resharding would
	// update only one copy per shard, so the migrator must refuse.
	if _, err := chaos.Migrator(); err == nil {
		t.Error("rebalance against a fleet with a replaced replica must be refused")
	}
	// Health snapshots stay well-formed with the whole shard dark.
	if snap := chaos.HealthSnapshots()["sparse1"]; len(snap.Replicas) != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
}
