// Package experiments reproduces every table and figure of the paper's
// evaluation (Sections V–VII) on the scaled synthetic models: each
// experiment boots the relevant cluster configurations, replays the
// model's deterministic request stream, analyzes the cross-layer traces,
// and renders the same rows/series the paper reports. See DESIGN.md
// "Experiments" for the harness, what tier-1 asserts and what is reported.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/platform"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Params control experiment scale. Defaults reproduce the paper's shapes
// in tens of seconds; raise Requests for tighter quantiles.
type Params struct {
	// Requests per configuration (after warmup).
	Requests int
	// Warmup requests discarded before measurement.
	Warmup int
	// Seed drives workload generation and network jitter.
	Seed int64
	// QPS for the high-rate experiment (Fig. 16); 0 derives a rate that
	// loads the server to ~60% utilization, the scaled analogue of the
	// paper's 25 QPS.
	QPS float64
}

// DefaultParams are tuned for a laptop-class full-suite run.
func DefaultParams() Params {
	return Params{Requests: 60, Warmup: 6, Seed: 12345}
}

// runMode distinguishes cached measurement runs.
type runMode struct {
	batchOverride int
	qps           float64
	smallPlatform bool
}

// runResult holds everything the figures need from one configuration run.
type runResult struct {
	plan       *sharding.Plan
	breakdowns []trace.RequestBreakdown
	// kindOpTime sums main+sparse operator time by attribution kind
	// across all measured requests (Fig. 4's categories).
	kindOpTime map[string]time.Duration
}

// Runner memoizes models, plans, and measurement runs so figures that
// share configurations (6/8/9/10/12) reuse one replay.
type Runner struct {
	P        Params
	models   map[string]*model.Model
	pooling  map[string]map[int]float64
	runs     map[string]*runResult
	controls map[string]*pass
	verdicts []Verdict
}

// Verdicts returns every claim the sweeps run so far have judged, in run
// order, each named "<experiment id>: <claim>".
func (r *Runner) Verdicts() []Verdict { return r.verdicts }

// NewRunner returns a runner with the given params.
func NewRunner(p Params) *Runner {
	if p.Requests <= 0 {
		p.Requests = DefaultParams().Requests
	}
	if p.Warmup <= 0 {
		p.Warmup = DefaultParams().Warmup
	}
	if p.Seed == 0 {
		p.Seed = DefaultParams().Seed
	}
	return &Runner{
		P:        p,
		models:   make(map[string]*model.Model),
		pooling:  make(map[string]map[int]float64),
		runs:     make(map[string]*runResult),
		controls: make(map[string]*pass),
	}
}

// Model returns the built (and cached) model.
func (r *Runner) Model(name string) *model.Model {
	if m, ok := r.models[name]; ok {
		return m
	}
	cfg := model.ByName(name)
	m := model.Build(cfg)
	r.models[name] = m
	return m
}

// Pooling returns cached per-table pooling estimates (lookups per
// request), sampled the way Section III-B2 describes.
func (r *Runner) Pooling(name string) map[int]float64 {
	if p, ok := r.pooling[name]; ok {
		return p
	}
	cfg := model.ByName(name)
	p := workload.EstimatePooling(workload.NewGenerator(cfg, r.P.Seed+777), 200)
	r.pooling[name] = p
	return p
}

// Plans returns the paper's configuration sweep for a model.
func (r *Runner) Plans(name string) ([]*sharding.Plan, error) {
	cfg := model.ByName(name)
	return sharding.AllConfigurations(&cfg, r.Pooling(name), false)
}

// drm1LoadBalanced returns DRM1 and its k-shard load-balanced plan: the
// deployment the extension sweeps disturb.
func (r *Runner) drm1LoadBalanced(k int) (*model.Model, *sharding.Plan, error) {
	m := r.Model("DRM1")
	plan, err := sharding.LoadBalanced(&m.Config, k, r.Pooling("DRM1"))
	return m, plan, err
}

// Run measures one (model, plan, mode) configuration, memoized.
func (r *Runner) Run(name string, plan *sharding.Plan, mode runMode) (*runResult, error) {
	key := fmt.Sprintf("%s|%s|b%d|q%g|s%v", name, plan.Name(), mode.batchOverride, mode.qps, mode.smallPlatform)
	if res, ok := r.runs[key]; ok {
		return res, nil
	}
	res, err := r.measure(name, plan, mode)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %s: %w", name, plan.Name(), err)
	}
	r.runs[key] = res
	return res, nil
}

func (r *Runner) measure(name string, plan *sharding.Plan, mode runMode) (*runResult, error) {
	m := r.Model(name)
	opts := cluster.Options{
		BatchSize: mode.batchOverride,
		// The figures measured here vary the RPC count with the batch
		// size and the net split, as the paper's per-batch calls do.
		PaperSchedule: true,
		ClockSkew:     true,
	}
	if mode.smallPlatform {
		p := platform.SCSmall()
		opts.SparsePlatform = &p
	}
	// One deterministic request stream per model: every configuration
	// replays the identical trace, as the paper's replayer does.
	gen := workload.NewGenerator(m.Config, r.P.Seed)
	s, err := r.deploy(m, plan, opts, gen.GenerateBatch(r.P.Warmup))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.replay(gen.GenerateBatch(r.P.Requests), mode.qps); err != nil {
		return nil, err
	}
	bs, spans, err := s.breakdowns()
	if err != nil {
		return nil, err
	}
	res := &runResult{
		plan:       plan,
		breakdowns: bs,
		kindOpTime: make(map[string]time.Duration),
	}
	for _, sp := range spans {
		if sp.Layer == trace.LayerOp && sp.Kind != "Wait" {
			res.kindOpTime[sp.Kind] += sp.Dur
		}
	}
	if len(res.breakdowns) != r.P.Requests {
		return nil, fmt.Errorf("analyzed %d of %d requests", len(res.breakdowns), r.P.Requests)
	}
	return res, nil
}

// componentQuantile reduces a component across a run's requests.
func componentQuantile(bs []trace.RequestBreakdown, c trace.Component, q float64) float64 {
	return stats.NewSample(trace.ComponentSeconds(bs, c)).Quantile(q)
}

// quantilesOf extracts the paper's P50/P90/P99 triple for a component.
func quantilesOf(bs []trace.RequestBreakdown, c trace.Component) stats.Quantiles {
	s := stats.NewSample(trace.ComponentSeconds(bs, c))
	return s.QuantileTriple()
}

// writeHeader prints a figure banner.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================================================================\n%s\n================================================================\n", title)
}
