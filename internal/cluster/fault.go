package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/replication"
)

// Failure injection and recovery orchestration: the cluster-level hooks
// the fault experiment and the chaos tests drive. A replica is killed by
// tearing its server down and swapping an unresponsive caller into its
// slot — in-flight calls fail promptly (failover rescues them) and new
// calls to that replica go silent, the failure mode a partitioned or
// hung server presents and the one health ejection exists for. Recovery
// is either a revive (a new server over the shard's shared store — the
// process restarted) or a replace (a fresh, empty store rebuilt
// byte-identically from a healthy peer in one staged transaction — the
// machine was lost).

// replica validates indices and returns the addressed replica. Caller
// holds replicaMu.
func (c *Cluster) replica(shard, idx int) (*sparseReplica, error) {
	if shard < 0 || shard >= len(c.replicas) {
		return nil, fmt.Errorf("cluster: no sparse shard %d", shard)
	}
	if idx < 0 || idx >= len(c.replicas[shard]) {
		return nil, fmt.Errorf("cluster: sparse%d has no replica %d", shard+1, idx)
	}
	return c.replicas[shard][idx], nil
}

// KillReplica tears down one sparse serving replica mid-traffic: the
// server closes (its in-flight requests fail promptly and fail over),
// and the replica's slot goes unresponsive, so anything still routed at
// it — a health probe, or every call when ejection is disabled — hangs
// until hedged past. Requires hedging (HedgeDelay > 0) on replicated
// shards to mask the silence; on a sole replica the shard simply goes
// dark.
func (c *Cluster) KillReplica(shard, idx int) error {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	rep, err := c.replica(shard, idx)
	if err != nil {
		return err
	}
	if rep.srv == nil {
		return fmt.Errorf("cluster: %s replica %d is already dead", core.ServiceName(shard+1), idx)
	}
	rep.slot.Swap(replication.Unresponsive())
	c.stopReplica(rep)
	return nil
}

// ReviveReplica restarts a killed replica over its existing table store
// (the shared shard store, or a previously rebuilt one): a new server
// boots, a fresh client splices into the slot, and the next health
// probe re-admits the replica to the rotation.
func (c *Cluster) ReviveReplica(shard, idx int) error {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	rep, err := c.replica(shard, idx)
	if err != nil {
		return err
	}
	if rep.srv != nil {
		return fmt.Errorf("cluster: %s replica %d is alive", core.ServiceName(shard+1), idx)
	}
	return c.startReplica(rep)
}

// ReplaceReplica stands up a replacement for a killed replica whose
// storage is gone: a fresh, empty table store rebuilds itself from a
// healthy peer replica of the same shard in one staged transaction
// (byte-identical, cold-cached), then a new server over it splices into
// the slot. The replacement has its own store from here on — the
// rebuild path is exactly what a standalone drmserve replacement
// process would run.
func (c *Cluster) ReplaceReplica(shard, idx int) (core.RebuildStats, error) {
	// Serialize against Rebalance and Publish (same order: ctrlMu before
	// replicaMu): rebuilding from a peer whose tables are mid-migration
	// would snapshot a table set later commits no longer update, and the
	// Migrator's homogeneous-fleet guard only protects future passes.
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	var st core.RebuildStats
	rep, err := c.replica(shard, idx)
	if err != nil {
		return st, err
	}
	if rep.srv != nil {
		return st, fmt.Errorf("cluster: %s replica %d is alive; kill it first", core.ServiceName(shard+1), idx)
	}
	st, err = c.rebuildFromPeer(rep, shard)
	if err != nil {
		return st, err
	}
	return st, c.startReplica(rep)
}

// rebuildFromPeer streams a fresh, private table store for rep from a
// live peer replica of the same shard and installs it as rep's store,
// closing the private store it supersedes (rep is down, so nothing
// serves that one). The caller owns starting a server over it. Caller
// holds ctrlMu and replicaMu.
func (c *Cluster) rebuildFromPeer(rep *sparseReplica, shard int) (core.RebuildStats, error) {
	var st core.RebuildStats
	// Any live server of the shard can seed the rebuild (rep itself is
	// down, so it is not among them), over the control plane's connection:
	// a rebuild must stream from one consistent peer, not a serving caller.
	peers := c.storeAddrs()[shard]
	if len(peers) == 0 {
		return st, fmt.Errorf("cluster: %s has no healthy peer to rebuild from", core.ServiceName(shard+1))
	}

	fresh := core.NewSparseShard(rep.store.ShardName, rep.rec)
	fresh.OpComputeScale = c.opts.sparsePlatform().OpComputeScale
	if c.opts.Tier != nil {
		fresh.SetTier(c.opts.Tier)
	}
	ep, err := c.ctrl.endpoint(rep.store.ShardName, peers[0])
	if err == nil {
		st, err = fresh.RebuildFromPeer(ep.Caller)
	}
	if err != nil {
		fresh.Close()
		return st, err
	}

	if rep.store != c.shards[shard] {
		rep.store.Close()
	}
	rep.store = fresh
	return st, nil
}

// ReplicaStore exposes the table store replica (shard, idx) currently
// serves — the shared shard store, or its private rebuilt one — for
// tests and experiments that assert on rebuild results.
func (c *Cluster) ReplicaStore(shard, idx int) (*core.SparseShard, error) {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	rep, err := c.replica(shard, idx)
	if err != nil {
		return nil, err
	}
	return rep.store, nil
}

// HealthSnapshots reports every hedged service's replica-breaker state
// (empty when replication or health tracking is off).
func (c *Cluster) HealthSnapshots() map[string]replication.HealthSnapshot {
	out := make(map[string]replication.HealthSnapshot, len(c.Hedged))
	for name, h := range c.Hedged {
		out[name] = h.HealthSnapshot()
	}
	return out
}

// KillSparse abruptly stops the i-th sparse server in boot order
// (0-based, shard-major across replicas), for failure-injection tests
// that want prompt connection failures: in a serving fleet shards "may
// fail and need to restart". Unlike KillReplica it leaves the replica's
// slot pointing at the dead client, so callers see errors, not silence.
// The replica is marked dead like any other kill — Revive/Replace and
// the peer scans treat it consistently.
func (c *Cluster) KillSparse(i int) {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	n := 0
	for _, reps := range c.replicas {
		for _, rep := range reps {
			if n == i {
				if rep.srv != nil {
					c.stopReplica(rep)
				}
				return
			}
			n++
		}
	}
}
