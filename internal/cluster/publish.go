package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rpc"
)

// Publisher builds the model-freshness driver for this deployment.
// Unlike the Migrator, a heterogeneous replica fleet is welcome — the
// point of a publish is to make every distinct table store fresh — so
// endpoints cover one live server per distinct store of every shard
// (replicas sharing a store receive the delta through it; a replica
// rebuilt from a peer after failure gets its own stream). Connections
// are dedicated control-plane clients, never hedged: hedging a
// stage.commit would re-issue it against a store that already consumed
// the version.
//
// A killed replica holding a private store gets no stream (nothing
// serves it); it returns stale and its staleness shows in its
// <shard>.model_version gauge until the next publish or rebuild.
func (c *Cluster) Publisher() (*core.Publisher, error) {
	if !c.Plan.IsDistributed() {
		return nil, fmt.Errorf("cluster: singular deployments hold no sparse shards; swap dense weights via Engine.SwapDense")
	}
	pub := &core.Publisher{
		Engine: c.Engine,
		Rec:    c.MainRec,
		Obs:    c.Obs,
		Shards: make(map[int][]core.ShardEndpoint),
	}
	c.replicaMu.Lock()
	defer c.replicaMu.Unlock()
	for si, reps := range c.replicas {
		seen := make(map[*core.SparseShard]bool)
		var eps []core.ShardEndpoint
		for _, rep := range reps {
			if rep.srv == nil || seen[rep.store] {
				continue
			}
			seen[rep.store] = true
			addr := rep.srv.Addr()
			caller, ok := c.pubClients[addr]
			if !ok {
				var err error
				caller, err = rpc.DialPool(addr, nil, 1)
				if err != nil {
					return nil, fmt.Errorf("cluster: dialing publish plane for %s replica %d: %w", rep.store.ShardName, rep.idx, err)
				}
				c.pubClients[addr] = caller
			}
			eps = append(eps, core.ShardEndpoint{Service: rep.store.ShardName, Addr: addr, Caller: caller})
		}
		if len(eps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no live replica to publish to", si+1)
		}
		pub.Shards[si+1] = eps
	}
	return pub, nil
}

// Publish streams one delta set to every table store in the deployment
// and swaps dense weights on the engine, usable mid-replay: requests
// keep flowing while rows stage and each store's cutover is atomic.
// Publishes serialize against each other and against the other
// control-plane drivers (ctrlMu); events accumulate on the cluster's
// freshness timeline.
func (c *Cluster) Publish(ds *core.DeltaSet) (*core.PublishReport, error) {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	// Rebuilt per publish: replicas killed, revived, or replaced since
	// the last call changed which endpoints cover the store set.
	pub, err := c.Publisher()
	if err != nil {
		return nil, err
	}
	report, err := pub.Publish(ds)
	if err != nil {
		return nil, err
	}
	for {
		cur := c.pubVersion.Load()
		if ds.Version <= cur || c.pubVersion.CompareAndSwap(cur, ds.Version) {
			break
		}
	}
	c.pubMu.Lock()
	c.pubEvents = append(c.pubEvents, report.Events...)
	c.pubMu.Unlock()
	return report, nil
}

// PublishTimeline returns a copy of the cumulative freshness timeline:
// one event per (publish, endpoint), in publish order.
func (c *Cluster) PublishTimeline() []core.PublishEvent {
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	out := make([]core.PublishEvent, len(c.pubEvents))
	copy(out, c.pubEvents)
	return out
}

// PublishedVersion reports the highest delta-set version published into
// this deployment (0 before any publish).
func (c *Cluster) PublishedVersion() uint64 { return c.pubVersion.Load() }
