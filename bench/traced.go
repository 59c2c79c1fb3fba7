package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/frontend"
	"repro/internal/rpc"
)

// ladderTolerance is how far the four rungs may sum from the client's
// mean round trip before the traced run fails: unattributed time means a
// span went unmatched, which is a harness bug.
const ladderTolerance = 0.02

// runTraced is the per-layer run. Half of d drives the workload at the
// untraced cluster.Boot deployment, where the public counters are read
// and the reference p50 is taken; the other half drives the same
// deployment assembled under span-recording shims. Leaf costs the shims
// cannot see are then measured by replaying captured inputs.
func runTraced(w *spec, seed int64, d time.Duration, scratch string) (*result, error) {
	l, err := setUp(w, seed, scratch)
	if err != nil {
		return nil, err
	}
	defer l.close()
	fx := l.fx
	r := newResult(layerMetrics)
	r.set("model.build_s", fx.buildS)
	r.set("workload.gen_s", fx.genS)
	r.set("core.shardfile.export_s", fx.exportS)
	r.set("cluster.boot_s", l.bootS)

	// Untraced reference phase.
	before := snapshot(l)
	var m0, m1 runtime.MemStats
	runtime.GC() // as the untraced run starts its timed window
	runtime.ReadMemStats(&m0)
	ref, err := drive(fx, l.target(), d/2, warmupReqs)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	r.count(ref.samples)
	refLat := latencies(ref.samples)
	nRef := float64(max(len(ref.samples), 1))
	r.set("client.p99_whole_ms", quantile(refLat, 0.99))
	r.set("proc.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/nRef)
	r.set("proc.alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/nRef)
	r.set("proc.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	r.set("proc.goroutines_peak", float64(ref.goroutinesPeak))
	r.notes["client.p99_whole_ms"] = fmt.Sprintf("%d samples, untraced", len(refLat))
	counters(r, before, snapshot(l), ref.wall)
	publishMetrics(r, fx, ref)
	// The reference deployment is done; its sockets and table stores
	// must not compete with the traced one. Closing again on return is
	// harmless: every Close under a cluster is idempotent.
	l.cl.Close()

	// Traced phase.
	t := newTracer()
	dep, err := bootTraced(fx, t)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	if err := warm(fx, dep.mainSrv.Addr()); err != nil {
		return nil, err
	}
	t.reset()
	runtime.GC()
	tr, err := drive(fx, dep.target(fx), d/2, warmupReqs+len(ref.samples))
	if err != nil {
		return nil, err
	}
	dep.close() // every caller goroutine has now recorded its span; the deferred second close is a no-op
	r.count(tr.samples)
	if err := ladder(r, fx, t, tr.samples); err != nil {
		return nil, err
	}
	// Both phases' p50 are reduced as the end-to-end p50_ms is, so that a
	// disturbed stretch of either phase is not read as tracing's cost.
	quietP50 := func(ph *phase) float64 {
		ws, _ := cut(ph, w.burst, w.limitMs)
		return quiet(ws, func(w window) float64 { return w.p50 }, false)
	}
	if p50 := quietP50(ref); p50 > 0 {
		r.set("trace.overhead_pct", 100*(quietP50(tr)/p50-1))
	}
	if err := t.write(filepath.Join(scratch, w.name+".spans.json")); err != nil {
		return nil, err
	}

	if err := leaves(r, fx, t); err != nil {
		return nil, err
	}
	r.set("proc.rss_peak_mb", rssPeakMB())
	return r, nil
}

// latencies is what the correct responses took, in ms.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// counterSnap is the untraced deployment's public counters at one moment.
type counterSnap struct {
	front        frontend.Stats
	hits, misses int64
	resident     int64
	main         rpc.ServerStats
}

func snapshot(l *live) counterSnap {
	var c counterSnap
	if f := l.cl.Frontend; f != nil {
		c.front = f.Stats()
	}
	for _, ts := range l.cl.TierStats() {
		c.hits += ts.Hits
		c.misses += ts.Misses
	}
	c.resident = l.cl.ResidentBytes()
	c.main = l.cl.MainStats()
	return c
}

// counters reports what the public counters moved by over the reference
// phase, which lasted wall.
func counters(r *result, a, b counterSnap, wall time.Duration) {
	if batches := b.front.Batches - a.front.Batches; batches > 0 {
		r.set("frontend.batch_reqs_mean", float64(b.front.BatchedRequests-a.front.BatchedRequests)/float64(batches))
		r.set("frontend.batch_items_mean", float64(b.front.BatchedItems-a.front.BatchedItems)/float64(batches))
		r.set("frontend.exec_busy_pct", 100*float64(b.front.ExecBusyNs-a.front.ExecBusyNs)/float64(wall))
		sheds := b.front.Sheds() - a.front.Sheds()
		r.set("frontend.shed_pct", 100*float64(sheds)/float64(b.front.Submitted-a.front.Submitted+sheds))
	}
	if n := b.hits - a.hits + b.misses - a.misses; n > 0 {
		r.set("embedding.tier.hit_pct", 100*float64(b.hits-a.hits)/float64(n))
	}
	r.set("embedding.resident_mb", float64(b.resident)/mib)
	r.notes["proc.goroutines_peak"] = fmt.Sprintf("main server peak in flight %d, overloads %d", b.main.PeakInFlight, b.main.Overloads-a.main.Overloads)
}

func publishMetrics(r *result, fx *fixture, ph *phase) {
	if len(ph.publishes) == 0 {
		return
	}
	var total time.Duration
	for _, d := range ph.publishes {
		total += d
	}
	rows := 0
	for _, td := range fx.identityDelta(1).Tables {
		rows += len(td.Rows)
	}
	r.set("core.publish.ms_p50", quantile(msOf(ph.publishes), 0.5))
	r.set("core.publish.rows_per_s", float64(rows*len(ph.publishes))/total.Seconds())
	r.set("core.publish.versions", float64(len(ph.publishes)))
}
