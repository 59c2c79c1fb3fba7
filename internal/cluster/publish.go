package cluster

import "repro/internal/core"

// Publish streams one delta set to every table store in the deployment
// and swaps dense weights on the engine, usable mid-replay: requests
// keep flowing while rows stage and each store's cutover is atomic.
// Publishes serialize against each other and against the other
// control-plane drivers (ctrlMu); events accumulate on the cluster's
// freshness timeline.
func (c *Cluster) Publish(ds *core.DeltaSet) (*core.PublishReport, error) {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	_, pub, err := c.drivers(false)
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
