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
// is a replace: a fresh, empty store rebuilt byte-identically from a
// healthy peer in one staged transaction — the machine was lost. The
// tests' hooks (a revive, an abrupt kill) are in export_test.go.

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
		fresh.SetTier(c.opts.Tier) // an empty store has nothing to refuse
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

// HealthSnapshots reports every hedged service's replica-breaker state
// (empty when replication or health tracking is off).
func (c *Cluster) HealthSnapshots() map[string]replication.HealthSnapshot {
	out := make(map[string]replication.HealthSnapshot, len(c.Hedged))
	for name, h := range c.Hedged {
		out[name] = h.HealthSnapshot()
	}
	return out
}
