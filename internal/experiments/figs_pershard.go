package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/trace"
)

// perShardOpLatency reduces a run to mean operator time per shard (and
// optionally per net), normalized to the largest shard — the layout of
// Figs. 10, 11a, 12, and 15.
func perShardOpLatency(res *runResult, byNet bool) *stats.StackGroup {
	n := res.plan.NumShards
	title := fmt.Sprintf("%s — per-shard operator latency (normalized)", res.plan.Name())
	g := stats.NewStackGroup(title)
	for shard := 1; shard <= n; shard++ {
		svc := core.ServiceName(shard)
		st := stats.NewStack(fmt.Sprintf("shard %d", shard))
		var total, net1, net2 time.Duration
		for i := range res.breakdowns {
			b := &res.breakdowns[i]
			total += b.PerShardOpTime[svc]
			if nets := b.PerShardNetOpTime[svc]; nets != nil {
				net1 += nets["net1"]
				net2 += nets["net2"]
			}
		}
		nreq := time.Duration(len(res.breakdowns))
		if byNet {
			st.Set("Net 1", float64(net1/nreq)/float64(time.Millisecond))
			st.Set("Net 2", float64(net2/nreq)/float64(time.Millisecond))
		} else {
			st.Set("ops", float64(total/nreq)/float64(time.Millisecond))
		}
		g.Append(st)
	}
	return g
}

// findPlan locates a plan by strategy and shard count.
func findPlan(plans []*sharding.Plan, strategy string, n int) *sharding.Plan {
	for _, p := range plans {
		if p.Strategy == strategy && p.NumShards == n {
			return p
		}
	}
	return nil
}

// perShardAt8 renders DRM1's per-shard operator latency at 8 shards under
// each strategy.
func (r *Runner) perShardAt8(w io.Writer, byNet bool, strategies ...string) error {
	plans, err := r.Plans("DRM1")
	if err != nil {
		return err
	}
	for _, strategy := range strategies {
		res, err := r.Run("DRM1", findPlan(plans, strategy, 8), runMode{})
		if err != nil {
			return err
		}
		fmt.Fprint(w, perShardOpLatency(res, byNet).Render())
		fmt.Fprintln(w)
	}
	return nil
}

// Fig10 shows DRM1 per-shard operator latencies by net at 8 shards,
// load-balanced vs NSBP: only NSBP confines each net's pooling to its
// own shards, producing the strongly unbalanced profile the paper uses
// to explain NSBP's latency/compute trade-off.
func (r *Runner) Fig10(w io.Writer) error {
	writeHeader(w, "Fig. 10 — DRM1 per-shard operator latency by net (8 shards)")
	return r.perShardAt8(w, true, sharding.StrategyLoad, sharding.StrategyNSBP)
}

// Fig11 shows DRM3 per-shard operator latencies (NSBP 8) and the
// embedded-portion stacks: shard 1 (the grouped small tables) does the
// work; the partition shards see at most one lookup; extra shards do not
// reduce latency.
func (r *Runner) Fig11(w io.Writer) error {
	writeHeader(w, "Fig. 11 — DRM3 per-shard operator latency and embedded stacks")
	plans, err := r.Plans("DRM3")
	if err != nil {
		return err
	}
	p8 := findPlan(plans, sharding.StrategyNSBP, 8)
	res, err := r.Run("DRM3", p8, runMode{})
	if err != nil {
		return err
	}
	fmt.Fprint(w, perShardOpLatency(res, false).Render())
	fmt.Fprintln(w)

	emb := stats.NewStackGroup("DRM3 — embedded-portion stacks (normalized)")
	for _, p := range plans {
		if p.Strategy == sharding.StrategyNSBP && p.NumShards == 2 {
			continue // paper presents singular, 1-shard, NSBP 4/8
		}
		res, err := r.Run("DRM3", p, runMode{})
		if err != nil {
			return err
		}
		emb.Append(embeddedStack(p.Name(), res.breakdowns))
	}
	fmt.Fprint(w, emb.Render())
	return nil
}

// Fig12 compares DRM1 per-shard operator latencies across all three
// strategies at 8 shards: load- and capacity-balanced profiles are
// similar; NSBP is unbalanced by design.
func (r *Runner) Fig12(w io.Writer) error {
	writeHeader(w, "Fig. 12 — DRM1 per-shard operator latency by strategy (8 shards)")
	return r.perShardAt8(w, false, sharding.StrategyLoad, sharding.StrategyCapacity, sharding.StrategyNSBP)
}

// Fig15 re-runs DRM1 load-balanced 8-shard on the SC-Small platform:
// per-shard operator latencies are nearly identical to SC-Large because
// sparse-shard work is memory-bound and tiny — the basis for serving
// sparse shards from cheaper machines (Section VII-B).
func (r *Runner) Fig15(w io.Writer) error {
	writeHeader(w, "Fig. 15 — DRM1 per-shard operator latency by platform (load-bal 8 shards)")
	plans, err := r.Plans("DRM1")
	if err != nil {
		return err
	}
	p := findPlan(plans, sharding.StrategyLoad, 8)
	large, err := r.Run("DRM1", p, runMode{})
	if err != nil {
		return err
	}
	small, err := r.Run("DRM1", p, runMode{smallPlatform: true})
	if err != nil {
		return err
	}
	// Absolute, not normalized: the figure compares the platforms' latencies.
	fmt.Fprintln(w, "mean per-shard operator time, ms (absolute, NOT normalized)")
	fmt.Fprintf(w, "%-12s %12s %12s\n", "shard", "SC-Large", "SC-Small")
	for shard := 1; shard <= p.NumShards; shard++ {
		svc := core.ServiceName(shard)
		fmt.Fprintf(w, "%-12s %12.5f %12.5f\n", fmt.Sprintf("shard %d", shard),
			meanShardOpMs(large.breakdowns, svc), meanShardOpMs(small.breakdowns, svc))
	}
	return nil
}

func meanShardOpMs(bs []trace.RequestBreakdown, svc string) float64 {
	var total time.Duration
	for i := range bs {
		total += bs[i].PerShardOpTime[svc]
	}
	return float64(total) / float64(len(bs)) / float64(time.Millisecond)
}
