package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// faultCell is one cell of the sweep: failure size × replica count ×
// hedge delay (a multiple of the calibrated SLA budget) × ejection.
type faultCell struct {
	replicas, kills int
	delayMult       float64
	eject           bool
}

var faultGrid = []faultCell{
	{2, 1, 1, false},
	{2, 1, 1, true},
	{3, 1, 1, false},
	{3, 1, 1, true},
	{3, 2, 1, true},
	{2, 1, 2, false},
	{2, 1, 2, true},
}

// faultQuantile is the SLA's target quantile.
const faultQuantile = 0.9

type faultRow struct {
	faultCell
	delay        time.Duration
	rep          serve.Report
	p50, p99     float64
	ejectAfter   time.Duration // kill → every killed replica out of rotation
	rebuildDur   time.Duration
	rebuildBytes int64
	rejoin       time.Duration // replace → back in rotation
	// hedges and ejections come from the deployment's obs registry
	// (replication.sparse1.*), exercising the same export the live
	// -metrics-addr endpoint serves.
	hedges    int64
	ejections int64
}

type faultResult struct {
	n    int
	rows []faultRow
	verdicts
}

// Fault evaluates serving through replica failures: a DRM1 deployment
// with replicated sparse shards replays a fixed scored stream while one
// (or more) of shard 1's replicas is killed mid-run — server torn down,
// connection gone silent — and later replaced by a fresh replica that
// rebuilds its table set from the surviving peer (table.read → stage.put).
// The sweep crosses failure size (replicas killed) × replica count ×
// hedge delay, with health ejection on and off, and reports the SLA
// verdict, fallback and late rates, time to eject, rebuild cost, and
// time to rejoin. Every cell's scores are compared bitwise against an
// unfailed control: a degraded fleet may get slower, never wrong.
func (r *Runner) Fault(w io.Writer) error {
	res, err := r.measureFault(faultGrid)
	return r.present(w, "fault", res, err)
}

// measureFault boots, per replica count, one unfailed control: its scores
// are the identity baseline and its latencies calibrate the SLA budget
// and the hedge delay, so the sweep is meaningful on fast and slow hosts
// alike. Each cell then boots one deployment, replays the scored stream
// with a kill-then-replace injected at the third marks, and evaluates the
// SLA; scores that differ from the control's are an error.
func (r *Runner) measureFault(cells []faultCell) (*faultResult, error) {
	m, plan, err := r.drm1LoadBalanced(2)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(m.Config, r.P.Seed+7)
	warm, stream := gen.GenerateBatch(r.P.Warmup), gen.GenerateBatch(r.P.Requests)
	killAt, replaceAt := len(stream)/3, 2*len(stream)/3

	cell := func(c faultCell) (*faultRow, error) {
		ctl, err := r.control(fmt.Sprintf("fault x%d", c.replicas), m, plan,
			cluster.Options{SparseReplicas: c.replicas, HedgeDelay: time.Second}, warm, stream)
		if err != nil {
			return nil, err
		}
		healthy := stats.NewDurationSample(ctl.ClientE2E)
		budget := time.Duration(max(3*healthy.P50(), 1.3*healthy.P99()) * float64(time.Second))
		row := &faultRow{faultCell: c, delay: time.Duration(c.delayMult * float64(budget))}
		opts := cluster.Options{SparseReplicas: c.replicas, HedgeDelay: row.delay, Obs: obs.NewRegistry()}
		if c.eject {
			opts.HealthFails = 2
			opts.HealthProbe = 4 * row.delay
		}
		s, err := r.deploy(m, plan, opts, warm)
		if err != nil {
			return nil, err
		}
		defer s.Close()

		var killT, replaceT time.Time
		ejected := func() int { return s.cl.HealthSnapshots()["sparse1"].Ejected }
		hooks := []at{{killAt, func() error {
			for k := 0; k < c.kills; k++ {
				if err := s.cl.KillReplica(0, k); err != nil {
					return err
				}
			}
			killT = time.Now()
			return nil
		}}}
		// Between the marks, watch for the breaker taking every killed
		// replica out of rotation.
		for i := killAt + 1; c.eject && i <= replaceAt; i++ {
			hooks = append(hooks, at{i, func() error {
				if row.ejectAfter == 0 && ejected() >= c.kills {
					row.ejectAfter = time.Since(killT)
				}
				return nil
			}})
		}
		hooks = append(hooks, at{replaceAt, func() error {
			for k := 0; k < c.kills; k++ {
				st, err := s.cl.ReplaceReplica(0, k)
				if err != nil {
					return err
				}
				row.rebuildBytes += st.Bytes
				row.rebuildDur = max(row.rebuildDur, st.Duration)
			}
			replaceT = time.Now()
			return nil
		}})
		p, err := s.replay(stream, 0, hooks...)
		if err == nil {
			err = sameScores(ctl.scores, p.scores)
		}
		if err != nil {
			return nil, err
		}

		// Drive light unmeasured traffic until the prober re-admits the
		// replacements (ejection mode only), bounding the wait.
		if c.eject {
			deadline := time.Now().Add(5 * time.Second)
			for ejected() > 0 && time.Now().Before(deadline) {
				if _, _, err := s.rep.Send(stream[0]); err != nil {
					return nil, fmt.Errorf("rejoin probe traffic: %w", err)
				}
				time.Sleep(row.delay / 4)
			}
			if ejected() == 0 {
				row.rejoin = time.Since(replaceT)
			}
		}

		row.rep = serve.SLA{Budget: budget, TargetQuantile: faultQuantile}.Evaluate(p.Result)
		sample := stats.NewDurationSample(p.ClientE2E)
		row.p50, row.p99 = sample.P50(), sample.P99()
		snap := s.cl.Obs.Snapshot()
		row.hedges = snap.Gauge("replication.sparse1.hedges")
		row.ejections = snap.Gauge("replication.sparse1.ejections")
		return row, nil
	}

	res := &faultResult{n: len(stream)}
	for _, c := range cells {
		row, err := cell(c)
		if err != nil {
			return nil, fmt.Errorf("fault repl=%d kills=%d eject=%v: %w", c.replicas, c.kills, c.eject, err)
		}
		res.rows = append(res.rows, *row)
	}
	claimEvery(&res.verdicts, "health ejection keeps the SLA met through a replica failure", res.rows,
		func(row faultRow) bool { return row.eject }, func(row faultRow) bool { return row.rep.Met },
		fmt.Sprintf("ejection-on cells met p%.0f within 3x the healthy P50", 100*faultQuantile))
	claimEvery(&res.verdicts, "with ejection off the dead window violates the SLA", res.rows,
		func(row faultRow) bool { return !row.eject }, func(row faultRow) bool { return !row.rep.Met },
		"ejection-off cells violated")
	res.claim("a degraded fleet never changes a score", true, "all %d cells byte-identical to the unfailed control", len(res.rows))
	return res, nil
}

func (res *faultResult) render(w io.Writer) {
	writeHeader(w, "Fault tolerance: replica failure x health ejection (DRM1, load-bal 2 shards)")
	fmt.Fprintf(w, "kill at n/3, replace (snapshot rebuild from peer) at 2n/3, n=%d; SLA p%.0f at 3x healthy P50\n\n", res.n, 100*faultQuantile)
	fmt.Fprintf(w, "%-5s %-6s %-7s %-6s %-9s %-9s %-10s %-7s %-7s %-9s %-10s %-9s %-9s %-7s %-7s %s\n",
		"repl", "kills", "delay", "eject", "p50", "p99", "SLA", "fall%", "late%", "eject", "rebuild", "rejoin", "KiB", "hedges", "ejects", "identity")
	for _, row := range res.rows {
		fmt.Fprintf(w, "%-5d %-6d %-7s %-6v %-9s %-9s %-10s %-7.1f %-7.1f %-9s %-10s %-9s %-9.0f %-7d %-7d %s\n",
			row.replicas, row.kills, fmtMS(row.delay), row.eject,
			fmtMS(time.Duration(row.p50*float64(time.Second))),
			fmtMS(time.Duration(row.p99*float64(time.Second))),
			slaLabel(row.rep), 100*row.rep.FallbackRate, 100*row.rep.LateRate,
			fmtMS(row.ejectAfter), fmtMS(row.rebuildDur), fmtMS(row.rejoin),
			float64(row.rebuildBytes)/1024, row.hedges, row.ejections, "byte-identical")
	}
	fmt.Fprintln(w)
	res.print(w)
	fmt.Fprintln(w, "\nReading: with ejection off, every request whose primary died pays the\nfull hedge delay until the replica is replaced — a third of the run.\nWith ejection on, the breaker pays that delay only for the strike\ncalls and the occasional probation probe, the fleet serves on the\nsurvivors, and the replacement rebuilds its tables from a peer and\nrejoins cold-cached. What that did to the SLA quantile in this run is\nin the verdict lines above. Failures never change scores — only\nlatency: a differing score stops the experiment with an error.")
}

// slaLabel renders an SLA report's verdict column.
func slaLabel(rep serve.Report) string {
	if rep.Met {
		return "MET"
	}
	return "VIOLATED"
}

// fmtMS renders a duration in milliseconds ("-" for zero/unset).
func fmtMS(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}
