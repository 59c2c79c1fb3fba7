package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// coserveCell is one deployment of the six units: each tenant's initial
// replica steps and the slots it may grow into.
type coserveCell struct {
	name             string
	initialA, slotsA int
	initialB, slotsB int
	elastic          bool
}

var coserveGrid = []coserveCell{
	{name: "static-A", initialA: 2, slotsA: 2, initialB: 1, slotsB: 1},
	{name: "static-B", initialA: 1, slotsA: 1, initialB: 2, slotsB: 2},
	{name: "elastic", initialA: 1, slotsA: 2, initialB: 1, slotsB: 2, elastic: true},
}

var coserveTenants = [2]string{"drm1a", "drm1b"}

type coserveRow struct {
	deploy string
	phase  int
	tenant string
	steps  int
	rep    serve.Report
	served int // scored requests served, every one identical to the control
}

type coserveResult struct {
	sla                 serve.SLA     // shared, calibrated at the dedicated control
	p50                 time.Duration // the control's un-contended p50
	c2, hotQPS, coldQPS float64       // phase rates derived from it
	rows                []coserveRow
	notes               []string
	timeline            []cluster.MoveEvent // the last elastic deployment's
	timelineStart       time.Time
	verdicts
}

// CoServe evaluates multi-model co-serving: two DRM1 tenant copies
// share one fleet of six server units (three replica steps of a
// two-shard plan) through a single front door, and traffic reverses
// between two phases — tenant A hot then tenant B hot, each hot rate
// sized at ~1.4x what one replica step sustains and ~0.7x what two do.
// Three deployments spend the identical hardware: a static split
// favoring A (2+1 steps), a static split favoring B (1+2), and an
// elastic fleet that starts balanced (1+1 plus a free step) and lets
// the capacity planner move steps as phases shift — scale-up streams a
// snapshot rebuild into a parked slot, scale-down drains and returns
// the servers. A static fleet must pick a winner, so whichever tenant
// it shorts should blow its SLA in the phase where that tenant is hot,
// and the elastic fleet, re-allocating, should meet every per-model SLA:
// both are verdicts of the run, not guarantees. Every scored response in
// every deployment is compared bitwise against a dedicated single-tenant
// control: consolidation and live reallocation may change latency, never
// scores.
func (r *Runner) CoServe(w io.Writer) error {
	res, err := r.measureCoServe(coserveGrid)
	return r.present(w, "coserve", res, err)
}

func (r *Runner) measureCoServe(cells []coserveCell) (*coserveResult, error) {
	m, plan, err := r.drm1LoadBalanced(2)
	if err != nil {
		return nil, err
	}
	n := r.P.Requests
	gen := [2]*workload.Generator{workload.NewGenerator(m.Config, r.P.Seed+11), workload.NewGenerator(m.Config, r.P.Seed+13)}
	warm := gen[0].GenerateBatch(r.P.Warmup)
	stream := [2][]*workload.Request{gen[0].GenerateBatch(n), gen[1].GenerateBatch(n)}

	// Dedicated control: one single-tenant cluster replays both scored
	// streams — the identity baseline for every deployment, and a latency
	// sample that calibrates the shared SLA budget (generous over the
	// un-contended p50, so only queueing from under-entitlement — not
	// host noise — can violate it) and the phase rates.
	ctl, err := r.control("coserve", m, plan, cluster.Options{}, warm, append(stream[0][:n:n], stream[1]...))
	if err != nil {
		return nil, err
	}
	want := [2][][]float32{ctl.scores[:n], ctl.scores[n:]}
	sample := stats.NewDurationSample(ctl.ClientE2E)
	res := &coserveResult{p50: time.Duration(sample.P50() * float64(time.Second))}
	res.sla = serve.SLA{TargetQuantile: 0.9, Budget: max(8*res.p50, time.Duration(2.5*sample.P99()*float64(time.Second)))}
	// The drain gate's capacity model: a tenant holding two of the three
	// replica steps owns 4/6 units of execution credit, so it sustains
	// (2/3)/p50 req/s; the hot rate is 0.7x that — 1.4x what a single
	// step's entitlement drains, while fitting two steps with room. The
	// cold tenant idles at a trickle.
	res.c2 = (2.0 / 3.0) / res.p50.Seconds()
	res.hotQPS, res.coldQPS = 0.7*res.c2, max(0.06*res.c2, 4)

	// pressure drives overload bursts at the hot tenant and runs planner
	// passes until the fleet has granted it a second replica step.
	pressure := func(fl *fleet, hot *subject) error {
		deadline := time.Now().Add(20 * time.Second)
		for hot.cl.ActiveReplicas() < 2 {
			if time.Now().After(deadline) {
				return fmt.Errorf("planner never granted the hot tenant a second step: timeline %+v", fl.Timeline())
			}
			if _, err := hot.replay(gen[0].GenerateBatch(int(res.hotQPS*0.4)+8), res.hotQPS); err != nil {
				return err
			}
			fl.Step()
		}
		return nil
	}

	// both replays one fresh batch through each subject concurrently, open
	// loop: subj[i]'s is count[i] requests from gen[i] at qps[i].
	both := func(subj [2]*subject, count [2]int, qps [2]float64) (ps [2]*pass, err error) {
		var errs [2]error
		done := make(chan struct{})
		go func() {
			defer close(done)
			ps[1], errs[1] = subj[1].replay(gen[1].GenerateBatch(count[1]), qps[1])
		}()
		ps[0], errs[0] = subj[0].replay(gen[0].GenerateBatch(count[0]), qps[0])
		<-done
		return ps, errors.Join(errs[:]...)
	}

	// settle drains overload hangover before a measured flood. The
	// pressure bursts and serial scored passes leave two kinds of state
	// behind: drain-gate debt (bounded at 4x the burst allowance, repaid
	// by the sleep at the slowest tenant's 1/3-share rate) and a
	// service-time median observed under contention. When that median
	// exceeds the whole budget the frontend sheds even empty-queue
	// requests, and only its 1-in-16 admission probes still execute — so
	// each paced round below submits enough requests to guarantee probes.
	// The loop exits once a full round runs shed-free on both tenants AND
	// at latencies near the dedicated control's p50: shed-free alone only
	// proves the median slipped under the budget, and a still-elevated
	// median resumes shedding as soon as the flood builds queue depth.
	settle := func(subj [2]*subject) (bool, error) {
		clean := func(p *pass) bool {
			return p.Fallbacks == 0 && len(p.ClientE2E) > 0 &&
				stats.NewDurationSample(p.ClientE2E).P50() <= 2.5*res.p50.Seconds()
		}
		time.Sleep(600 * time.Millisecond)
		for round := 0; round < 12; round++ {
			ps, err := both(subj, [2]int{18, 18}, [2]float64{16, 16})
			if err != nil {
				return false, err
			}
			if clean(ps[0]) && clean(ps[1]) {
				return true, nil
			}
		}
		return false, nil
	}

	// cell runs one deployment through both phases — tenant A hot then
	// tenant B hot — and appends its four rows.
	cell := func(c coserveCell) error {
		tenant := func(name string, initial, slots int) cluster.TenantSpec {
			return cluster.TenantSpec{
				Name: name, Model: m, Plan: plan,
				Frontend:        frontend.Config{Budget: res.sla.Budget, MaxQueue: 256},
				InitialReplicas: initial, SlotReplicas: slots, MaxReplicas: 2,
			}
		}
		fl, err := r.deployFleet([]cluster.TenantSpec{
			tenant(coserveTenants[0], c.initialA, c.slotsA), tenant(coserveTenants[1], c.initialB, c.slotsB),
		}, cluster.FleetOptions{Capacity: 6, HedgeDelay: 25 * time.Millisecond, Obs: obs.NewRegistry()}, warm)
		if err != nil {
			return err
		}
		defer fl.Close()
		subj := [2]*subject{fl.tenants[coserveTenants[0]], fl.tenants[coserveTenants[1]]}

		for hot := range coserveTenants {
			cold := 1 - hot
			if c.elastic {
				// Flush the planner's shed/busy cursors of the previous
				// phase, then drive bursts until it has re-homed capacity
				// onto the newly hot tenant.
				fl.Step()
				if err := pressure(fl, subj[hot]); err != nil {
					return fmt.Errorf("phase %d: %w", hot+1, err)
				}
			}
			// Settle before measuring. Each fleet carries ~800MB of
			// embedding tables and a scale-up copies another replica
			// step's worth, so collect that garbage at the boundary
			// rather than mid-flood, where a GC stretch reads as
			// serving-path latency; then the paced settle rounds reset
			// the admission estimator's median and the drain gate's
			// debt, so the measured flood sees only this phase's
			// contention.
			runtime.GC()
			clean, err := settle(subj)
			if err != nil {
				return err
			}
			if !clean {
				res.notes = append(res.notes, fmt.Sprintf("# %s phase %d: settle never certified clean; measurements may carry overload hangover", c.name, hot+1))
			}

			// The phase's measured traffic: the hot tenant at hotQPS and
			// the cold tenant's trickle concurrently, ~2s each.
			floods, err := both([2]*subject{subj[hot], subj[cold]},
				[2]int{int(2*res.hotQPS) + 8, int(2*res.coldQPS) + 4}, [2]float64{res.hotQPS, res.coldQPS})
			if err != nil {
				return err
			}
			for i, t := range [2]int{hot, cold} {
				// Every scored response this tenant serves must match the
				// dedicated control bit for bit; shed requests are tolerated.
				scored, err := subj[t].replay(stream[t], 0)
				if err == nil {
					err = sameScores(want[t], scored.scores)
				}
				if err != nil {
					return fmt.Errorf("phase %d %s: %w", hot+1, coserveTenants[t], err)
				}
				res.rows = append(res.rows, coserveRow{
					deploy: c.name, phase: hot + 1, tenant: coserveTenants[t],
					steps: subj[t].cl.ActiveReplicas(), rep: res.sla.Evaluate(floods[i].Result), served: len(scored.ClientE2E),
				})
			}
		}
		if c.elastic {
			res.timeline, res.timelineStart = fl.Timeline(), fl.up
		}
		return nil
	}

	for _, c := range cells {
		if err := cell(c); err != nil {
			return nil, fmt.Errorf("coserve %s: %w", c.name, err)
		}
		runtime.GC() // reclaim this fleet's tables before the next boots
	}

	served, violated := 0, map[string]int{}
	for _, row := range res.rows {
		served += row.served
		if !row.rep.Met {
			violated[row.deploy]++
		}
	}
	for _, c := range cells {
		if c.elastic {
			res.claim(c.name+" meets every per-model SLA", violated[c.name] == 0, "%d of its 4 phase x tenant cells violated p90 within %s", violated[c.name], fmtMS(res.sla.Budget))
		} else {
			res.claim(c.name+" violates an SLA in the phase it shorts", violated[c.name] > 0, "%d of its 4 phase x tenant cells violated", violated[c.name])
		}
	}
	res.claim("consolidation and reallocation never change a score", true, "all %d served scored responses byte-identical to the dedicated control", served)
	return res, nil
}

func (res *coserveResult) render(w io.Writer) {
	writeHeader(w, "Multi-model co-serving: elastic vs static at equal hardware (2x DRM1 tenants, 6 units)")
	fmt.Fprintf(w, "per-tenant SLA: p90 within %s (calibrated at the dedicated control); hardware fixed at 6 units everywhere\n", fmtMS(res.sla.Budget))
	fmt.Fprintf(w, "calibration: control p50 %s -> two replica steps sustain %.0f req/s -> hot %.0f q/s, cold %.0f q/s\n\n", fmtMS(res.p50), res.c2, res.hotQPS, res.coldQPS)
	fmt.Fprintf(w, "%-9s %-7s %-7s %-6s %-6s %-7s %-7s %-9s %-10s %s\n",
		"deploy", "phase", "tenant", "steps", "sent", "shed%", "late%", "p90", "SLA", "identity")
	for _, note := range res.notes {
		fmt.Fprintln(w, note)
	}
	for _, row := range res.rows {
		fmt.Fprintf(w, "%-9s %-7d %-7s %-6d %-6d %-7.1f %-7.1f %-9s %-10s %d/%d identical\n",
			row.deploy, row.phase, row.tenant, row.steps, row.rep.Total,
			100*row.rep.FallbackRate, 100*row.rep.LateRate,
			fmtMS(row.rep.AchievedQuantileLatency), slaLabel(row.rep), row.served, row.served)
	}
	fmt.Fprintf(w, "\nreallocation timeline (elastic):\n")
	for _, ev := range res.timeline {
		fmt.Fprintf(w, "  +%-8s %s %d->%d  %-34s rebuild %6.1f KiB in %s\n",
			ev.At.Sub(res.timelineStart).Round(time.Millisecond), ev.Model, ev.From, ev.To,
			"("+ev.Reason+")", float64(ev.RebuildBytes)/1024, ev.Took.Round(time.Millisecond))
	}
	fmt.Fprintln(w)
	res.print(w)
	fmt.Fprintln(w, "\nReading: a static split pins the tenant it shorts at one replica step\nof entitlement while its hot-phase load wants two. The elastic fleet\nwatches queue occupancy, executor busy time, and sheds; when the\nphases flip it reclaims the idle tenant's step and streams the hot\ntenant's tables into a parked slot from a healthy peer — a snapshot\nrebuild whose cost is in the timeline, and which has to fit inside a\nphase for capacity to follow the load. Which SLAs held in this run is\nin the verdict lines above. Scores stay bitwise identical to a\ndedicated fleet throughout: a differing score stops the experiment\nwith an error.")
}
