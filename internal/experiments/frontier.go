package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/workload"
)

// frontCell is one deployment of the frontier sweep: a batch window,
// driven at each load — a multiple of the measured serial capacity, so the
// sweep lands under, at and over capacity on any host.
type frontCell struct {
	window time.Duration
	loads  []float64
}

var frontGrid = []frontCell{
	{0, []float64{0.5, 1, 2}},
	{2 * time.Millisecond, []float64{0.5, 1, 2}},
	{8 * time.Millisecond, []float64{0.5, 1, 2}},
}

type frontRow struct {
	window            time.Duration
	load              float64
	offered, achieved float64 // QPS
	p50, p99          float64 // seconds
	rep               serve.Report
	perBatch          float64 // requests coalesced per executed batch
	shed              int64   // from the deployment's obs registry
}

type frontResult struct {
	capacity        float64
	meanLat, budget time.Duration
	rows            []frontRow
	verdicts
}

// Frontier sweeps the serving frontend's dynamic-batching window against
// offered open-loop load and reports the throughput/P99/fallback
// frontier — the system-level consequence of the paper's SLA framing:
// under heavy traffic a deployment either batches aggressively enough to
// keep up or sheds the excess into fallbacks; it must not collapse into
// unbounded queueing.
func (r *Runner) Frontier(w io.Writer) error {
	res, err := r.measureFront(frontGrid)
	return r.present(w, "front", res, err)
}

func (r *Runner) measureFront(cells []frontCell) (*frontResult, error) {
	m := r.Model("DRM1")
	cfg := m.Config
	plan := sharding.Singular(&cfg)
	n := r.P.Requests

	// Calibrate: serial capacity and latency through an unwindowed
	// frontend (each request its own batch — the unbatched baseline).
	gen := workload.NewGenerator(cfg, r.P.Seed)
	cal, err := r.deploy(m, plan, cluster.Options{Frontend: &frontend.Config{}}, gen.GenerateBatch(r.P.Warmup))
	if err != nil {
		return nil, fmt.Errorf("frontier calibration: %w", err)
	}
	calPass, err := cal.replay(gen.GenerateBatch(n), 0)
	cal.Close()
	if err != nil {
		return nil, fmt.Errorf("frontier calibration: %w", err)
	}
	res := &frontResult{capacity: float64(calPass.Sent) / calPass.elapsed.Seconds()}
	res.meanLat = time.Duration(stats.NewDurationSample(calPass.ClientE2E).Mean() * float64(time.Second))
	res.budget = 8 * res.meanLat
	sla := serve.SLA{Budget: res.budget, TargetQuantile: 0.99}

	// Every cell replays the identical request stream, the paper's
	// fixed-trace methodology.
	warm := workload.NewGenerator(cfg, r.P.Seed+1).GenerateBatch(r.P.Warmup)
	reqs := workload.NewGenerator(cfg, r.P.Seed+99).GenerateBatch(n)
	for _, c := range cells {
		s, err := r.deploy(m, plan, cluster.Options{
			Obs:      obs.NewRegistry(),
			Frontend: &frontend.Config{BatchWait: c.window, MaxQueue: 2 * n, Budget: res.budget},
		}, warm)
		if err != nil {
			return nil, fmt.Errorf("frontier window %v: %w", c.window, err)
		}
		// Batch and shed accounting comes from the cluster's obs registry
		// — the same export the live -metrics-addr endpoint serves — so
		// the experiment doubles as an end-to-end check of the frontend's
		// probe-group wiring.
		prev := s.cl.Obs.Snapshot()
		for _, load := range c.loads {
			p, err := s.replay(reqs, res.capacity*load)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("frontier window %v x%.1f: %w", c.window, load, err)
			}
			st := s.cl.Obs.Snapshot()
			delta := func(name string) int64 { return st.Gauge(name) - prev.Gauge(name) }
			row := frontRow{
				window: c.window, load: load, offered: res.capacity * load,
				achieved: float64(len(p.ClientE2E)) / p.elapsed.Seconds(),
				rep:      sla.Evaluate(p.Result),
				shed:     delta("frontend.shed_budget") + delta("frontend.shed_queue_full") + delta("frontend.shed_deadline"),
			}
			if batches := delta("frontend.batches"); batches > 0 {
				row.perBatch = float64(delta("frontend.batched_requests")) / float64(batches)
			}
			prev = st
			sample := stats.NewDurationSample(p.ClientE2E)
			row.p50, row.p99 = sample.P50(), sample.P99()
			res.rows = append(res.rows, row)
		}
		s.Close()
	}

	// Claims, over whatever part of the grid was run.
	first, last := res.rows[0], res.rows[len(res.rows)-1]
	if last.window > first.window {
		res.claim("a wider window coalesces more at the highest load", last.perBatch > first.perBatch,
			"%.2f reqs/batch at window %v vs %.2f at %v (x%.1f)", last.perBatch, last.window, first.perBatch, first.window, last.load)
	}
	claimEvery(&res.verdicts, "past capacity the frontend sheds instead of queueing without bound", res.rows,
		func(row frontRow) bool { return row.load > 1 }, func(row frontRow) bool { return row.rep.Met || row.rep.FallbackRate > 0 },
		fmt.Sprintf("over-capacity cells met the p99 budget %v or shed into fallbacks", res.budget.Round(time.Millisecond)))
	return res, nil
}

func (res *frontResult) render(w io.Writer) {
	writeHeader(w, "SLA serving frontier: batch window x offered QPS (DRM1 singular, frontend)")
	fmt.Fprintf(w, "serial capacity %.0f QPS, mean latency %v -> SLA budget %v @ p99\n\n",
		res.capacity, res.meanLat.Round(time.Microsecond), res.budget.Round(time.Millisecond))
	fmt.Fprintf(w, "%-10s %-8s %-10s %-10s %-10s %-10s %-10s %-11s %s\n",
		"window", "load", "offered", "achieved", "p50(ms)", "p99(ms)", "fallback%", "reqs/batch", "shed(obs)")
	for _, row := range res.rows {
		fmt.Fprintf(w, "%-10v %-8s %-10.0f %-10.0f %-10.2f %-10.2f %-10.1f %-11.2f %d\n",
			row.window, fmt.Sprintf("%.1fx", row.load), row.offered, row.achieved,
			row.p50*1e3, row.p99*1e3, 100*row.rep.FallbackRate, row.perBatch, row.shed)
	}
	fmt.Fprintln(w)
	res.print(w)
	fmt.Fprintln(w, "\nReading: a wider window trades added latency at low load for\ncoalescing (reqs/batch) at high load; past capacity the frontend sheds\ninto fallbacks instead of queueing without bound.")
}
