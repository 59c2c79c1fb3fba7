package cluster

import (
	"fmt"

	"repro/internal/core"
)

// Fault-harness hooks only tests call: a revive over the shard's store, a
// look at the store a replica serves, and an abrupt kill that leaves the
// dead client in place.

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
