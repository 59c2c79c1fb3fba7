package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tieredCell is one configuration of the sweep.
type tieredCell struct {
	skew    float64 // Zipf exponent of row popularity; 0 = uniform
	prec    sharding.Precision
	cacheMB float64 // hot-row cache budget per shard
}

var tieredGrid = func() (g []tieredCell) {
	for _, skew := range []float64{0, 1.2, 1.5} {
		for _, prec := range []sharding.Precision{sharding.PrecisionFP32, sharding.PrecisionFP16, sharding.PrecisionInt8} {
			for _, cacheMB := range []float64{0, 4, 16} {
				if prec == sharding.PrecisionInt8 && cacheMB > 0 {
					continue // an int8 tier is served uncached: the cell would boot int8 × 0 again
				}
				g = append(g, tieredCell{skew, prec, cacheMB})
			}
		}
	}
	return g
}()

type tieredRow struct {
	tieredCell
	sparseP99 float64 // sparse-op P99 over every (request, shard), seconds
	e2eP50    float64 // client E2E P50, seconds
	resident  int64   // measured shard bytes (cold + cache)
	hitRate   float64
}

// tieredPair is the paired headline comparison: fp32 against the
// uncached int8 tier under zipf-1.5 rows at the same fixed QPS.
type tieredPair struct {
	baseBytes, tierBytes int64   // resident, caches counted
	e2eRatio, opRatio    float64 // median per-pair P99 ratios, tiered / fp32
}

type tieredResult struct {
	planned string // the planner's byte-aware view, before any serving
	// plannedCold is the planner's int8 cold-tier bytes over fp32 bytes.
	plannedCold float64
	rows        []tieredRow
	pair        *tieredPair
	verdicts
}

// Tiered evaluates the tiered embedding store in the sparse serving
// path: a DRM1 load-balanced deployment sweeps hot-row cache budget ×
// cold-tier precision × row-popularity skew — a budget only over fp32
// and fp16 tiers, as a shard serves an int8 tier uncached — replaying the
// identical request stream in every cell (equal offered load), and
// reports the sparse serving cost, the shards' measured resident bytes,
// and the aggregate cache hit rate. Latency is judged on the trace-derived
// sparse-op time — the component tiering touches — whose per-request
// attribution cancels the host noise that dominates a small sample's
// client-side P99 (same methodology as the reshard experiment). The
// capacity argument is the paper's: scale-out is driven by resident
// bytes, so an int8 cold tier that holds the sparse tail buys shard
// count directly. That a live rebalance under a tiered store keeps scores
// byte-identical is internal/cluster's TestTieredRebalanceChaosIdentity.
func (r *Runner) Tiered(w io.Writer) error {
	res, err := r.measureTiered(tieredGrid)
	if err == nil {
		err = r.tieredPaired(res)
	}
	return r.present(w, "tiered", res, err)
}

func tierPlan(cfg *model.Config, prec sharding.Precision) *sharding.TierPlan {
	return sharding.PlanTiers(cfg, sharding.TierOptions{ColdPrecision: prec})
}

// measureTiered runs the sweep cells. Their latencies are indicative; the
// headline comparison is tieredPaired's.
func (r *Runner) measureTiered(cells []tieredCell) (*tieredResult, error) {
	m, plan, err := r.drm1LoadBalanced(4)
	if err != nil {
		return nil, err
	}
	cfg := m.Config
	int8Plan := tierPlan(&cfg, sharding.PrecisionInt8)
	res := &tieredResult{
		planned:     sharding.TieredReport(&cfg, plan, int8Plan),
		plannedCold: float64(int8Plan.ResidentBytes(&cfg)) / float64(cfg.SparseBytes()),
	}
	for _, c := range cells {
		row, err := r.tieredRow(m, plan, c)
		if err != nil {
			return nil, fmt.Errorf("tiered %s cache %g skew %g: %w", c.prec, c.cacheMB, c.skew, err)
		}
		res.rows = append(res.rows, *row)
	}

	// Cold-tier bytes alone: the first uncached int8 cell against the
	// first uncached fp32 cell, held to the planner's prediction.
	var fp32, int8 int64
	for _, row := range res.rows {
		if row.cacheMB == 0 && row.prec == sharding.PrecisionFP32 && fp32 == 0 {
			fp32 = row.resident
		}
		if row.cacheMB == 0 && row.prec == sharding.PrecisionInt8 && int8 == 0 {
			int8 = row.resident
		}
	}
	if fp32 > 0 && int8 > 0 {
		got := float64(int8) / float64(fp32)
		res.claim("the int8 cold tier alone cuts table bytes as the planner predicts", math.Abs(got-res.plannedCold) <= 0.02,
			"cold-tier bytes -%.0f%% (%.1f -> %.1f MiB; planned -%.0f%%)",
			100*(1-got), float64(fp32)/(1<<20), float64(int8)/(1<<20), 100*(1-res.plannedCold))
	}
	return res, nil
}

// tieredRow measures one cell: warm-up (which also warms the caches),
// then one measured replay.
func (r *Runner) tieredRow(m *model.Model, plan *sharding.Plan, c tieredCell) (*tieredRow, error) {
	opts := cluster.Options{}
	if c.prec != sharding.PrecisionFP32 || c.cacheMB > 0 {
		opts.Tier = &core.TierConfig{CacheMB: c.cacheMB, Plan: tierPlan(&m.Config, c.prec)}
	}
	gen := workload.NewGenerator(m.Config, r.P.Seed)
	if c.skew > 0 {
		gen.EnableRowSkew(c.skew)
	}
	s, err := r.deploy(m, plan, opts, gen.GenerateBatch(r.P.Warmup))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	p, bs, err := s.replayTraced(gen.GenerateBatch(r.P.Requests), 0)
	if err != nil {
		return nil, err
	}
	row := &tieredRow{
		tieredCell: c, sparseP99: sparseOpP99(bs),
		e2eP50: stats.NewDurationSample(p.ClientE2E).P50(), resident: s.cl.ResidentBytes(),
	}
	var all core.TierStats
	for _, ts := range s.cl.TierStats() {
		all.Hits += ts.Hits
		all.Misses += ts.Misses
	}
	row.hitRate = all.HitRate()
	return row, nil
}

// sparseOpP99 samples every (request, sparse shard) op time — not just
// each request's bounding shard — so the P99 is an estimable quantile
// over 4× the samples rather than a max statistic.
func sparseOpP99(bs []trace.RequestBreakdown) float64 {
	var ops []float64
	for i := range bs {
		for shard, d := range bs[i].PerShardOpTime {
			if shard != "main" {
				ops = append(ops, d.Seconds())
			}
		}
	}
	return stats.NewSample(ops).P99()
}

// tieredPaired runs the headline comparison, paired: the fp32 baseline
// and the int8 deployment boot side by side and measurement phases
// alternate between them over the *same* request stream, so workload
// variance cancels and a shared host's scheduler noise lands on both. The
// figures are medians of per-pair P99 ratios — client E2E (what the SLA
// sees) and sparse-op (the strict component-level metric) — the robust
// estimate an unpaired comparison of two max-ish statistics cannot give
// on a timeshared machine.
func (r *Runner) tieredPaired(res *tieredResult) error {
	m, plan, err := r.drm1LoadBalanced(4)
	if err != nil {
		return err
	}
	cfg := m.Config
	n := r.P.Requests
	gen := workload.NewGenerator(cfg, r.P.Seed)
	gen.EnableRowSkew(1.5)
	// A long warm-up: it also steadies caches and admissions.
	warm := gen.GenerateBatch(n)
	base, err := r.deploy(m, plan, cluster.Options{}, warm)
	if err != nil {
		return fmt.Errorf("tiered pair: %w", err)
	}
	defer base.Close()
	tiered, err := r.deploy(m, plan, cluster.Options{
		Tier: &core.TierConfig{Plan: tierPlan(&cfg, sharding.PrecisionInt8)},
	}, warm)
	if err != nil {
		return fmt.Errorf("tiered pair: %w", err)
	}
	defer tiered.Close()

	const qps = 25
	var e2eRatios, opRatios []float64
	for pair := 0; pair < 5; pair++ {
		reqs := gen.GenerateBatch(n)
		var p99 [2]struct{ e2e, op float64 }
		for i, s := range []*subject{base, tiered} {
			p, bs, err := s.replayTraced(reqs, qps)
			if err != nil {
				return fmt.Errorf("tiered pair: %w", err)
			}
			p99[i].e2e, p99[i].op = stats.NewDurationSample(p.ClientE2E).P99(), sparseOpP99(bs)
		}
		if p99[0].e2e > 0 {
			e2eRatios = append(e2eRatios, p99[1].e2e/p99[0].e2e)
		}
		if p99[0].op > 0 {
			opRatios = append(opRatios, p99[1].op/p99[0].op)
		}
	}
	if len(e2eRatios) == 0 || len(opRatios) == 0 {
		return fmt.Errorf("tiered pair: no valid phase pairs")
	}
	pr := &tieredPair{
		baseBytes: base.cl.ResidentBytes(), tierBytes: tiered.cl.ResidentBytes(),
		e2eRatio: stats.NewSample(e2eRatios).P50(), opRatio: stats.NewSample(opRatios).P50(),
	}
	res.pair = pr
	res.claim("the int8 tier holds at least 30% fewer resident bytes than fp32", pr.reduction() >= 30,
		"resident bytes -%.0f%% (%.1f -> %.1f MiB)", pr.reduction(), float64(pr.baseBytes)/(1<<20), float64(pr.tierBytes)/(1<<20))
	res.claim("and serves within 1.15x of fp32's client e2e p99 at equal QPS", pr.e2eRatio <= 1.15,
		"client e2e p99 ratio %.2f, sparse-op p99 ratio %.2f (medians of 5 paired phases)", pr.e2eRatio, pr.opRatio)
	return nil
}

// reduction is the resident-byte saving in percent.
func (pr *tieredPair) reduction() float64 {
	return 100 * (1 - float64(pr.tierBytes)/float64(pr.baseBytes))
}

func (res *tieredResult) render(w io.Writer) {
	writeHeader(w, "Tiered embedding storage: cache budget x cold precision x row skew (DRM1, load-bal 4 shards)")
	fmt.Fprint(w, res.planned)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-9s %-10s %-9s %-12s %-11s %-11s %-9s\n",
		"skew", "precision", "cache", "sparse p99", "e2e p50", "resident", "hit rate")
	for _, row := range res.rows {
		skewLabel := "uniform"
		if row.skew > 0 {
			skewLabel = fmt.Sprintf("zipf %.1f", row.skew)
		}
		fmt.Fprintf(w, "%-9s %-10s %-9s %-12s %-11s %-11s %-9s\n",
			skewLabel, row.prec, fmt.Sprintf("%.0fMiB", row.cacheMB),
			fmt.Sprintf("%.2fms", row.sparseP99*1e3),
			fmt.Sprintf("%.2fms", row.e2eP50*1e3),
			fmt.Sprintf("%.1fMiB", float64(row.resident)/(1<<20)),
			fmt.Sprintf("%.0f%%", 100*row.hitRate))
	}
	if pr := res.pair; pr != nil {
		fmt.Fprintf(w, "\nint8 vs fp32 baseline (zipf 1.5, equal 25 QPS, paired phases, median ratios): resident bytes -%.0f%%, client e2e p99 ratio %.2f, sparse-op p99 ratio %.2f\n",
			pr.reduction(), pr.e2eRatio, pr.opRatio)
	}
	fmt.Fprintln(w)
	res.print(w)
	fmt.Fprintf(w, "\nReading: an int8 row is dim+4 bytes against 4*dim; over DRM1's tables\nthe planner's int8 cold tier is %.0f%% smaller than fp32, and what a\ndeployment provisions — cold tier plus any hot-row caches — is the\nresident figure in the verdict lines above. In a capacity-driven\ndeployment that is shard count, not just memory. The hot-row cache\nfronts fp32 and fp16 tiers only: an int8 row is decoded inside the\npooling walk, prefetched with its neighbours, for less than a cache\nhit costs, so the int8 rows have no cache cells and a 0%% hit rate by\nconstruction, and the sparse-op p99 ratio is what that decode costs in\nthe tail. A shard splits its cache budget by cold-tier bytes and\nre-splits it when a rebalance changes its tables; encoded rows migrate\nas verbatim bytes and committed copies start with cold caches.\n",
		100*(1-res.plannedCold))
}
