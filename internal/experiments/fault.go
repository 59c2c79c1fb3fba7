package experiments

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sharding"
	"repro/internal/stats"
	"repro/internal/workload"
)

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
	writeHeader(w, "Fault tolerance: replica failure x health ejection (DRM1, load-bal 2 shards)")
	m := r.Model("DRM1")
	cfg := m.Config
	plan, err := sharding.LoadBalanced(&cfg, 2, r.Pooling("DRM1"))
	if err != nil {
		return err
	}
	n := r.P.Requests
	gen := workload.NewGenerator(cfg, r.P.Seed+7)
	warm := gen.GenerateBatch(r.P.Warmup)
	stream := gen.GenerateBatch(n)

	// One unfailed control per replica count: its scores are the identity
	// baseline and its latencies calibrate the SLA budget and the hedge
	// delay, so the sweep is meaningful on fast and slow hosts alike.
	type control struct {
		scores [][]float32
		budget time.Duration
	}
	controls := map[int]*control{}
	controlFor := func(replicas int) (*control, error) {
		if c, ok := controls[replicas]; ok {
			return c, nil
		}
		cl, err := cluster.Boot(m, clonePlan(plan), cluster.Options{
			Seed: r.P.Seed, SparseReplicas: replicas, HedgeDelay: time.Second,
		})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		client, err := cl.DialMain()
		if err != nil {
			return nil, err
		}
		defer client.Close()
		rep := serve.NewReplayer(client)
		if res := rep.RunSerial(warm); res.Failed() > 0 {
			return nil, res.Errors[0]
		}
		scores, res := rep.RunSerialScored(stream)
		if res.Failed() > 0 {
			return nil, res.Errors[0]
		}
		sample := stats.NewDurationSample(res.ClientE2E)
		budget := time.Duration(3 * sample.P50() * float64(time.Second))
		if floor := time.Duration(1.3 * sample.P99() * float64(time.Second)); budget < floor {
			budget = floor
		}
		c := &control{scores: scores, budget: budget}
		controls[replicas] = c
		return c, nil
	}

	const quantile = 0.9
	fmt.Fprintf(w, "kill at n/3, replace (snapshot rebuild from peer) at 2n/3, n=%d; SLA p%.0f at 3x healthy P50\n\n", n, 100*quantile)
	fmt.Fprintf(w, "%-5s %-6s %-7s %-6s %-9s %-9s %-10s %-7s %-7s %-9s %-10s %-9s %-9s %-7s %-7s %s\n",
		"repl", "kills", "delay", "eject", "p50", "p99", "SLA", "fall%", "late%", "eject", "rebuild", "rejoin", "KiB", "hedges", "ejects", "identity")

	cells := []struct {
		replicas, kills int
		delayMult       float64
		eject           bool
	}{
		{2, 1, 1, false},
		{2, 1, 1, true},
		{3, 1, 1, false},
		{3, 1, 1, true},
		{3, 2, 1, true},
		{2, 1, 2, false},
		{2, 1, 2, true},
	}
	ejectMet, noEjectViolated, allIdentical := true, true, true
	for _, c := range cells {
		ctl, err := controlFor(c.replicas)
		if err != nil {
			return fmt.Errorf("fault control x%d: %w", c.replicas, err)
		}
		delay := time.Duration(c.delayMult * float64(ctl.budget))
		row, err := r.faultCell(m, plan, warm, stream, faultCellOpts{
			replicas: c.replicas, kills: c.kills, delay: delay, eject: c.eject,
			budget: ctl.budget, quantile: quantile,
		}, ctl.scores)
		if err != nil {
			return fmt.Errorf("fault repl=%d kills=%d eject=%v: %w", c.replicas, c.kills, c.eject, err)
		}
		verdict := "MET"
		if !row.rep.Met {
			verdict = "VIOLATED"
		}
		identity := "byte-identical"
		if !row.identical {
			identity, allIdentical = "MISMATCH", false
		}
		if c.eject {
			ejectMet = ejectMet && row.rep.Met
		} else {
			noEjectViolated = noEjectViolated && !row.rep.Met
		}
		fmt.Fprintf(w, "%-5d %-6d %-7s %-6v %-9s %-9s %-10s %-7.1f %-7.1f %-9s %-10s %-9s %-9.0f %-7d %-7d %s\n",
			c.replicas, c.kills, fmtMS(delay), c.eject,
			fmtMS(time.Duration(row.p50*float64(time.Second))),
			fmtMS(time.Duration(row.p99*float64(time.Second))),
			verdict, 100*row.rep.FallbackRate, 100*row.rep.LateRate,
			fmtMS(row.ejectAfter), fmtMS(row.rebuildDur), fmtMS(row.rejoin),
			float64(row.rebuildBytes)/1024, row.hedges, row.ejections, identity)
	}

	fmt.Fprintf(w, "\nhealth ejection kept the SLA met in every ejection cell: %v; ejection-off cells violated: %v; all cells byte-identical to control: %v\n",
		ejectMet, noEjectViolated, allIdentical)
	fmt.Fprintln(w, "\nReading: with ejection off, every request whose primary died pays the\nfull hedge delay until the replica is replaced — a third of the run —\nand the SLA quantile blows. With ejection on, the breaker pays that\ndelay only for the strike calls and the occasional probation probe,\nthe fleet serves on the survivors, and the replacement rebuilds its\ntables byte-identically from a peer and rejoins cold-cached. Failures\nnever change scores — only latency.")
	return nil
}

// fmtMS renders a duration in milliseconds (\"-\" for zero/unset).
func fmtMS(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

type faultCellOpts struct {
	replicas, kills int
	delay           time.Duration
	eject           bool
	budget          time.Duration
	quantile        float64
}

type faultRow struct {
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
	identical bool
}

// faultCell boots one deployment, replays the scored stream with a
// kill-then-replace injected at the third marks, and evaluates the SLA
// and score identity.
func (r *Runner) faultCell(m *model.Model, plan *sharding.Plan, warm, stream []*workload.Request, o faultCellOpts, want [][]float32) (*faultRow, error) {
	opts := cluster.Options{
		Seed: r.P.Seed, SparseReplicas: o.replicas, HedgeDelay: o.delay,
		Obs: obs.NewRegistry(),
	}
	if o.eject {
		opts.HealthFails = 2
		opts.HealthProbe = 4 * o.delay
	}
	cl, err := cluster.Boot(m, clonePlan(plan), opts)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	client, err := cl.DialMain()
	if err != nil {
		return nil, err
	}
	defer client.Close()
	rep := serve.NewReplayer(client)
	if res := rep.RunSerial(warm); res.Failed() > 0 {
		return nil, res.Errors[0]
	}

	killAt, replaceAt := len(stream)/3, 2*len(stream)/3
	var killT, replaceT time.Time
	row := &faultRow{identical: true}
	res := &serve.Result{}
	ejected := func() int { return cl.HealthSnapshots()["sparse1"].Ejected }
	for i, req := range stream {
		if i == killAt {
			for k := 0; k < o.kills; k++ {
				if err := cl.KillReplica(0, k); err != nil {
					return nil, err
				}
			}
			killT = time.Now()
		}
		if i == replaceAt {
			for k := 0; k < o.kills; k++ {
				st, err := cl.ReplaceReplica(0, k)
				if err != nil {
					return nil, err
				}
				row.rebuildBytes += st.Bytes
				if st.Duration > row.rebuildDur {
					row.rebuildDur = st.Duration
				}
			}
			replaceT = time.Now()
		}
		scores, d, err := rep.Send(req)
		res.Sent++
		switch {
		case err == nil:
			res.ClientE2E = append(res.ClientE2E, d)
			if want != nil && !bytes.Equal(float32Bytes(scores), float32Bytes(want[i])) {
				row.identical = false
			}
		case serve.IsFallback(err):
			res.Fallbacks++
		default:
			res.Errors = append(res.Errors, err)
		}
		if o.eject && row.ejectAfter == 0 && !killT.IsZero() && replaceT.IsZero() && ejected() >= o.kills {
			row.ejectAfter = time.Since(killT)
		}
	}

	// Drive light unmeasured traffic until the prober re-admits the
	// replacements (ejection mode only), bounding the wait.
	if o.eject {
		deadline := time.Now().Add(5 * time.Second)
		for ejected() > 0 && time.Now().Before(deadline) {
			if _, _, err := rep.Send(stream[0]); err != nil {
				return nil, fmt.Errorf("rejoin probe traffic: %w", err)
			}
			time.Sleep(o.delay / 4)
		}
		if ejected() == 0 {
			row.rejoin = time.Since(replaceT)
		}
	}

	sla := serve.SLA{Budget: o.budget, TargetQuantile: o.quantile}
	row.rep = sla.Evaluate(res)
	sample := stats.NewDurationSample(res.ClientE2E)
	row.p50, row.p99 = sample.P50(), sample.P99()
	snap := cl.Obs.Snapshot()
	row.hedges = snap.Gauge("replication.sparse1.hedges")
	row.ejections = snap.Gauge("replication.sparse1.ejections")
	return row, nil
}
