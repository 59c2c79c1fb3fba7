package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rpc"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// notes are the sample counts printed beside the percentiles.
	notes map[string]string
}

func newResult(defs []metricDef) *result {
	r := &result{Metrics: make(map[string]metricValue, len(defs)), notes: make(map[string]string)}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

func (r *result) set(name string, v float64) {
	mv, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	mv.Value = v
	r.Metrics[name] = mv
}

func (r *result) count(samples []sample) {
	r.Attempted += len(samples)
	for _, s := range samples {
		if !s.ok {
			r.Failed++
		}
	}
	r.Correct = r.Failed == 0
}

const mib = 1 << 20

// rusage reads the process's resource usage; zero if the call fails,
// which on Linux it does not for RUSAGE_SELF.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU so far. Main shard, sparse
// shards and the generator share the process, so this is the paper's
// aggregate compute cost.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rssPeakMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// live is a booted untraced deployment with its fixture and how long
// each part of set-up took.
type live struct {
	fx     *fixture
	cl     *cluster.Cluster
	setupS float64
	bootS  float64
}

func (l *live) close() {
	l.cl.Close()
	l.fx.close()
}

func (l *live) target() target {
	tgt := target{addr: l.cl.MainAddr()}
	if l.fx.w.publishEvery > 0 {
		tgt.publish = func(ds *core.DeltaSet) error {
			_, err := l.cl.Publish(ds)
			return err
		}
	}
	return tgt
}

// warm sends the first warmupReqs pool requests serially so caches, pools
// and lazily faulted pages are in place before the first timed request.
func warm(fx *fixture, addr string) error {
	client, err := rpc.DialPool(addr, nil, 1)
	if err != nil {
		return err
	}
	defer client.Close()
	for seq := 0; seq < warmupReqs; seq++ {
		idx, req := fx.request(seq)
		call := client.Go(req)
		<-call.Done
		if !fx.correct(idx, call) {
			return fmt.Errorf("bench: warm-up request %d of %s failed the control check (%v)", idx, fx.w.name, call.Err)
		}
	}
	return nil
}

// setUp is everything before the first timed request: fixture, boot
// through the public cluster API, warm-up.
func setUp(w *spec, seed int64, scratch string) (*live, error) {
	t0 := time.Now()
	fx, err := newFixture(w, seed, scratch)
	if err != nil {
		return nil, err
	}
	tb := time.Now()
	cl, err := cluster.Boot(fx.model, fx.plan, fx.bootOptions())
	if err != nil {
		fx.close()
		return nil, err
	}
	l := &live{fx: fx, cl: cl, bootS: since(tb)}
	if err := warm(fx, cl.MainAddr()); err != nil {
		l.close()
		return nil, err
	}
	l.setupS = since(t0)
	return l, nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// writeSamples writes one line per timed request - sent, done and the
// process CPU at its burst's send, in ns - so that another way of reducing
// a run can be tried on runs already made.
func writeSamples(path string, samples []sample) error {
	var b bytes.Buffer
	for _, s := range samples {
		fmt.Fprintf(&b, "%d %d %d\n", s.sent, s.done, s.cpu)
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// runE2E is the untraced run: every number a caller or operator sees.
// samplesTo, when not empty, is a file the timed requests are written to.
func runE2E(w *spec, seed int64, d time.Duration, scratch, samplesTo string) (*result, error) {
	var l *live
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if l != nil {
			l.close()
			l = nil
			runtime.GC()
		}
		var err error
		if l, err = setUp(w, seed, scratch); err != nil {
			return nil, err
		}
		setups = append(setups, l.setupS)
	}
	defer l.close()

	runtime.GC() // every run starts its timed window from a collected heap
	ph, err := drive(l.fx, l.target(), d, warmupReqs)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if samplesTo != "" {
		if err := writeSamples(samplesTo, ph.samples); err != nil {
			return nil, err
		}
	}

	r := newResult(e2eMetrics)
	r.count(ph.samples)
	ws, size := cut(ph, w.burst, w.limitMs)
	r.set("setup_s", quantile(setups, 0.5))
	r.set("p50_ms", quiet(ws, func(w window) float64 { return w.p50 }, false))
	r.set("p99_ms", quiet(ws, func(w window) float64 { return w.p99 }, false))
	r.set("goodput_qps", quiet(ws, func(w window) float64 { return w.goodput }, true))
	r.set("cpu_ms_per_req", quiet(ws, func(w window) float64 { return w.cpuPerReq }, false))
	r.set("heap_live_mb", float64(mem.HeapAlloc)/mib)
	note := fmt.Sprintf("good-side quartile of %d windows, %d requests each", len(ws), size)
	for _, name := range []string{"p50_ms", "p99_ms", "goodput_qps", "cpu_ms_per_req"} {
		r.notes[name] = note
	}
	r.notes["goodput_qps"] += fmt.Sprintf(", limit %g ms", w.limitMs)
	r.notes["setup_s"] = fmt.Sprintf("median of %d set-ups", setupRepeats)
	return r, nil
}
