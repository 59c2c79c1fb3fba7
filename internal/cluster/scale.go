package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/replication"
)

// Elastic replica-set resizing: the cluster-level capacity lever the
// co-serving scheduler pulls. A cluster booted with parked slots
// (Options.ActiveReplicas < SparseReplicas) holds reclaimable headroom;
// SetActiveReplicas grows into it by rebuilding each shard's next parked
// replica from a healthy peer in a staged transaction — the same
// machinery ReplaceReplica runs, because physically the move is the
// same: a server newly assigned to this model must stream the model's
// embedding tables before it can serve — or shrinks by draining and
// parking trailing replicas, returning their servers to the shared
// pool. Replica 0 of every shard never parks: a model's replica set
// never drops below one.

// ActiveReplicas reports how many replica slots per shard currently
// serve (the remainder are parked headroom).
func (c *Cluster) ActiveReplicas() int {
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	return c.active
}

// ReplicaSlots reports how many replica slots per shard exist in total,
// serving or parked (0 for singular plans).
func (c *Cluster) ReplicaSlots() int {
	if len(c.replicas) == 0 {
		return 0
	}
	return len(c.replicas[0])
}

// SetActiveReplicas grows or shrinks every shard's serving replica set
// to n slots. Growth activates parked slots one shard at a time: a
// fresh, private table store rebuilds byte-identically from a healthy
// peer (stats for every rebuilt shard are returned — the cost the
// reallocation timeline charges), a server boots over it, and the
// replica re-enters the hedged rotation. Shrink disables the trailing
// slots first (no new calls route to them), waits a short drain grace
// for in-flight calls, then tears the servers down and reclaims any
// private stores. n is clamped to at least one serving replica; growth
// past the booted slot count is an error.
func (c *Cluster) SetActiveReplicas(n int) ([]core.RebuildStats, error) {
	// Same order as ReplaceReplica: ctrlMu before replicaMu. A
	// rebuild mid-migration would snapshot tables later commits no
	// longer update, and concurrent resizes would plan against each
	// other's in-flight moves.
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	c.replicaMu.Lock()

	if len(c.replicas) == 0 {
		c.replicaMu.Unlock()
		return nil, fmt.Errorf("cluster: singular deployments have no replica slots to resize")
	}
	total := len(c.replicas[0])
	if n < 1 || n > total {
		c.replicaMu.Unlock()
		return nil, fmt.Errorf("cluster: active replicas %d out of range [1,%d]", n, total)
	}
	cur := c.active
	switch {
	case n == cur:
		c.replicaMu.Unlock()
		return nil, nil
	case n > cur:
		defer c.replicaMu.Unlock()
		return c.growTo(n)
	default:
		// shrinkTo manages replicaMu itself (it drops the lock across
		// the drain grace).
		return nil, c.shrinkTo(n)
	}
}

// growTo activates slots cur..n-1 on every shard. Caller holds
// ctrlMu and replicaMu.
func (c *Cluster) growTo(n int) ([]core.RebuildStats, error) {
	var stats []core.RebuildStats
	for idx := c.active; idx < n; idx++ {
		for shard := range c.replicas {
			rep := c.replicas[shard][idx]
			if rep.srv != nil {
				return stats, fmt.Errorf("cluster: %s replica %d is unexpectedly alive while parked", core.ServiceName(shard+1), idx)
			}
			st, err := c.rebuildFromPeer(rep, shard)
			if err != nil {
				return stats, err
			}
			if err := c.startReplica(rep); err != nil {
				return stats, err
			}
			if h := c.Hedged[rep.store.ShardName]; h != nil {
				// Clear any breaker state left from the slot's previous
				// tour of duty, then re-admit it to the rotation.
				h.Health.ReportSuccess(idx)
				h.SetEnabled(idx, true)
			}
			stats = append(stats, st)
		}
		c.active = idx + 1
	}
	return stats, nil
}

// shrinkTo parks slots n..cur-1 on every shard: disable, drain, tear
// down, reclaim. Caller holds ctrlMu and replicaMu; shrinkTo
// releases replicaMu across the drain grace and returns with it
// released.
func (c *Cluster) shrinkTo(n int) error {
	cur := c.active
	for shard := range c.replicas {
		h := c.Hedged[c.shards[shard].ShardName]
		for idx := n; idx < cur; idx++ {
			if h != nil {
				h.SetEnabled(idx, false)
			}
		}
	}
	c.active = n
	c.replicaMu.Unlock()

	// Drain grace: disabled slots take no new calls, but calls already
	// dispatched need a moment to finish before their server closes
	// under them (a late casualty would fail over, so this is about
	// tail latency, not correctness). ctrlMu is still held, so no
	// concurrent resize can re-enable these slots mid-drain.
	grace := 2 * c.opts.HedgeDelay
	if grace < 5*time.Millisecond {
		grace = 5 * time.Millisecond
	}
	if grace > 50*time.Millisecond {
		grace = 50 * time.Millisecond
	}
	time.Sleep(grace)

	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	for shard := range c.replicas {
		for idx := n; idx < cur; idx++ {
			rep := c.replicas[shard][idx]
			rep.slot.Swap(replication.Unresponsive())
			if rep.srv != nil {
				c.stopReplica(rep)
			}
			if rep.store != c.shards[shard] {
				rep.store.Close()
				rep.store = c.shards[shard]
			}
		}
	}
	return nil
}
