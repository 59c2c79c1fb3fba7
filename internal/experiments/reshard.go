package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reshardCell is one cell of the sweep: how hard the hot-feature
// distribution drifts onto shard 1's tables (clamped to the strongest
// drift the plan allows) and how many table moves the rebalance may make.
type reshardCell struct {
	skew   float64
	budget int
}

var reshardGrid = []reshardCell{{2, 0}, {2, 2}, {2, 8}, {3.5, 0}, {3.5, 2}, {3.5, 8}}

type reshardRow struct {
	reshardCell
	moves int
	bytes int64
	// planBefore/planAfter are the imbalance ratio's deterministic input:
	// max/mean of the shards' drifted pooling under the placement before
	// and after the moves (which tables move follows measured service
	// time, so moves and KiB vary run to run; this does not, given them).
	planBefore, planAfter float64
	pre, post             float64 // bounding-shard op-time P50 per phase, seconds
	preImb                float64 // shard imbalance ratio P50 per phase
	duringImb, postImb    float64
	e2eP50                float64 // post-phase client E2E P50, seconds
}

type reshardResult struct {
	hotTables int
	hotShare  float64
	rows      []reshardRow
	verdicts
}

// Reshard evaluates online resharding under load drift: a DRM1
// load-balanced deployment is driven with its design workload, then the
// hot-feature distribution drifts onto one shard's tables (total pooling
// held constant, so a perfect rebalance can fully recover), and a
// live rebalance pass — bounded by a move budget — migrates tables
// between serving shards. The sweep reports the imbalance before drift,
// during drift, and after rebalance for each (skew, budget) cell. That
// scores stay byte-identical through a migration is internal/cluster's
// TestClusterRebalanceLive, not re-checked here.
func (r *Runner) Reshard(w io.Writer) error {
	res, err := r.measureReshard(reshardGrid)
	return r.present(w, "reshard", res, err)
}

func (r *Runner) measureReshard(cells []reshardCell) (*reshardResult, error) {
	m, plan, err := r.drm1LoadBalanced(4)
	if err != nil {
		return nil, err
	}
	cfg, pooling := m.Config, r.Pooling("DRM1")

	// Drift concentrates heat on the tables the plan placed on one shard,
	// scaling the remaining tables down so total pooling stays constant:
	// the workload's *distribution* drifts, not its volume, and the
	// pre-drift figures are the recovery target.
	hotShard := &plan.Shards[0]
	var hotPool, totalPool float64
	for _, id := range hotShard.Tables {
		hotPool += pooling[id]
	}
	for _, p := range pooling {
		totalPool += p
	}
	res := &reshardResult{hotTables: len(hotShard.Tables), hotShare: hotPool / totalPool}
	// The strongest feasible drift leaves cold tables a sliver of their
	// pooling (cold scale ≥ 0: skew ≤ 1/hotShare).
	maxSkew := 0.95 / res.hotShare

	for _, c := range cells {
		c.skew = min(c.skew, maxSkew)
		drift := driftSkew(&cfg, hotShard.Tables, hotPool, totalPool, c.skew)
		drifted := make(map[int]float64, len(drift))
		for id, f := range drift {
			drifted[id] = f * pooling[id]
		}
		row, err := r.reshardCell(m, plan, drift, drifted, c)
		if err != nil {
			return nil, fmt.Errorf("reshard skew %.3g budget %d: %w", c.skew, c.budget, err)
		}
		res.rows = append(res.rows, *row)
	}

	claimEvery(&res.verdicts, "budget 0 moves nothing", res.rows,
		func(row reshardRow) bool { return row.budget == 0 }, func(row reshardRow) bool { return row.moves == 0 },
		"budget-0 cells made no move")
	claimEvery(&res.verdicts, "a live rebalance lowers the drifted shard imbalance", res.rows,
		func(row reshardRow) bool { return row.moves > 0 }, func(row reshardRow) bool { return row.postImb < row.duringImb },
		"cells that moved tables ended below their drifted imbalance")
	top := res.rows[0]
	for _, row := range res.rows {
		if row.budget >= top.budget {
			top = row
		}
	}
	res.claim("at the largest budget the bounding shard's op time is back within 15% of its pre-drift baseline", top.post <= 1.15*top.pre,
		"skew %.3g budget %d: bound p/p %.2f, imbalance %.2f -> %.2f -> %.2f", top.skew, top.budget, top.post/top.pre, top.preImb, top.duringImb, top.postImb)
	return res, nil
}

func (res *reshardResult) render(w io.Writer) {
	writeHeader(w, "Online resharding: load drift x move budget (DRM1, load-bal 4 shards)")
	var skews []float64
	for _, row := range res.rows {
		if len(skews) == 0 || skews[len(skews)-1] != row.skew {
			skews = append(skews, row.skew)
		}
	}
	fmt.Fprintf(w, "hot shard 1 holds %d tables, %.0f%% of pooling; drift scales them x{%.3g} with cold tables compensating\n\n",
		res.hotTables, 100*res.hotShare, skews)

	// Two trace-derived views of every phase: the bounding shard's
	// sparse-op time (the absolute quantity a balanced placement
	// minimizes) and the shard imbalance ratio — per-request max/mean of
	// sparse-shard op time, which cancels host noise shared across shards
	// and reads 1.0 at perfect balance. Client E2E P50 is shown for
	// scale; with tens of requests per phase its P99 is a max statistic
	// that one scheduler hiccup on a shared host dominates.
	fmt.Fprintf(w, "%-6s %-8s %-7s %-11s %-11s %-11s %-10s %-11s %-9s %s\n",
		"skew", "budget", "moves", "imb pre", "imb drift", "imb post", "bound p/p", "e2e p50", "KiB", "")
	for _, row := range res.rows {
		note := ""
		if row.moves == 0 {
			note = "(no moves)"
		}
		fmt.Fprintf(w, "%-6.3g %-8d %-7d %-11.2f %-11.2f %-11.2f %-10.2f %-11s %-9.0f %s\n",
			row.skew, row.budget, row.moves,
			row.preImb, row.duringImb, row.postImb,
			row.post/row.pre,
			fmt.Sprintf("%.2fms", row.e2eP50*1e3),
			float64(row.bytes)/1024, note)
	}
	fmt.Fprintln(w)
	res.print(w)
	fmt.Fprintln(w, "\nReading: budget 0 is the knob's off position — the drifted imbalance\npersists untouched. A small budget moves the few hottest tables;\nlarger budgets move more, toward the pre-drift imbalance (imb pre) and\na bounding shard whose op time is back at its pre-drift baseline\n(bound p/p = 1) — all while serving. How far this run got is in the\nverdict lines above.")
}

// boundShardOps extracts one request's bounding sparse-shard operator
// time — the quantity a balanced placement minimizes.
func boundShardOps(b *trace.RequestBreakdown) time.Duration {
	var bound time.Duration
	for shard, d := range b.PerShardOpTime {
		if shard != "main" && d > bound {
			bound = d
		}
	}
	return bound
}

// shardImbalance extracts one request's max/mean ratio of sparse-shard
// operator time (1.0 = perfectly balanced).
func shardImbalance(b *trace.RequestBreakdown) float64 {
	var bound, sum time.Duration
	count := 0
	for shard, d := range b.PerShardOpTime {
		if shard == "main" {
			continue
		}
		sum += d
		count++
		if d > bound {
			bound = d
		}
	}
	if count == 0 || sum == 0 {
		return 1
	}
	return float64(bound) * float64(count) / float64(sum)
}

// reshardCell measures one (drift, budget) cell: baseline replay, drift
// replay, live rebalance, post replay — one cluster, no restarts.
func (r *Runner) reshardCell(m *model.Model, plan *sharding.Plan, drift, drifted map[int]float64, c reshardCell) (*reshardRow, error) {
	gen := workload.NewGenerator(m.Config, r.P.Seed)
	s, err := r.deploy(m, plan, cluster.Options{}, gen.GenerateBatch(r.P.Warmup))
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// One fixed trace per cell: the drift phases replay the *same*
	// requests with bags reshaped, so phase-to-phase deltas come from
	// placement, not from fresh draws of the lognormal size tail.
	base := gen.GenerateBatch(r.P.Requests)
	skewed := workload.ApplySkew(base, drift)

	// phase replays one stream and returns the bounding-shard op-time
	// P50, the imbalance-ratio P50, and the client E2E P50.
	phase := func(reqs []*workload.Request) (float64, float64, float64, error) {
		p, bs, err := s.replayTraced(reqs, 0)
		if err != nil {
			return 0, 0, 0, err
		}
		imbs := make([]float64, len(bs))
		for i := range bs {
			imbs[i] = shardImbalance(&bs[i])
		}
		return componentQuantile(bs, boundShardOps, 0.50), stats.NewSample(imbs).Quantile(0.50),
			stats.NewDurationSample(p.ClientE2E).P50(), nil
	}

	row := &reshardRow{reshardCell: c}
	if row.pre, row.preImb, _, err = phase(base); err != nil {
		return nil, err
	}

	// Drift starts; the accounting window resets with it so the
	// rebalancer plans from drifted load only.
	s.cl.Engine.Load(true)
	if _, row.duringImb, _, err = phase(skewed); err != nil {
		return nil, err
	}

	row.planBefore = plannedImbalance(s.cl.Plan, drifted)
	report, err := s.cl.Rebalance(sharding.RebalanceOptions{MoveBudget: c.budget})
	if err != nil {
		return nil, err
	}
	row.moves, row.bytes = len(report.Plan.Moves), report.BytesMoved
	row.planAfter = plannedImbalance(s.cl.Plan, drifted)

	if row.post, row.postImb, row.e2eP50, err = phase(skewed); err != nil {
		return nil, err
	}
	return row, nil
}

// plannedImbalance is max/mean of per-shard pooling under a placement.
func plannedImbalance(p *sharding.Plan, pooling map[int]float64) float64 {
	var bound, sum float64
	for i := range p.Shards {
		pl := sharding.ShardPooling(&p.Shards[i], pooling)
		bound, sum = max(bound, pl), sum+pl
	}
	return bound * float64(len(p.Shards)) / sum
}

// driftSkew builds the per-table pooling multipliers: the hot shard's
// tables get the skew factor, every other table a compensating factor
// chosen so total expected pooling is unchanged.
func driftSkew(cfg *model.Config, hotTables []int, hotPool, totalPool, skew float64) map[int]float64 {
	cold := max((totalPool-skew*hotPool)/(totalPool-hotPool), 0)
	out := make(map[int]float64, len(cfg.Tables))
	for _, t := range cfg.Tables {
		out[t.ID] = cold
	}
	for _, id := range hotTables {
		out[id] = skew
	}
	return out
}
