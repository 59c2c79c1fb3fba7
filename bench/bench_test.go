package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
)

// steadyPhase is a closed loop of bursts in which every request takes
// 5.00 .. 5.99 ms and costs 2 ms of CPU, with no gap between bursts.
func steadyPhase(n, burst int) *phase {
	ph := &phase{}
	var now, cpu time.Duration
	for i := 0; i < n; i += burst {
		took := 5*time.Millisecond + time.Duration(i/burst%100)*10*time.Microsecond
		for j := 0; j < burst; j++ {
			ph.samples = append(ph.samples, sample{sent: now, done: now + took, cpu: cpu, ok: true})
		}
		now += took
		cpu += time.Duration(burst) * 2 * time.Millisecond
	}
	ph.wall, ph.cpu = now, cpu
	return ph
}

func TestQuietIgnoresDisturbedWindows(t *testing.T) {
	const burst, per = 4, 400
	p99 := func(w window) float64 { return w.p99 }
	ph := steadyPhase(windows*per+burst+1, burst) // a few requests beyond the last whole window
	ws, size := cut(ph, burst, 6)
	if len(ws) != windows || size != per {
		t.Fatalf("%d windows of %d requests, want %d of %d", len(ws), size, windows, per)
	}
	clean := quiet(ws, p99, false)
	if got := quiet(ws, func(w window) float64 { return w.cpuPerReq }, false); math.Abs(got-2) > 1e-9 {
		t.Errorf("cpu per request = %v ms, want 2", got)
	}
	// Every request is within the 6 ms limit and a burst of 4 takes about
	// 5.5 ms, so a window's goodput is near 4 / 5.5 ms.
	if got := quiet(ws, func(w window) float64 { return w.goodput }, true); got < 700 || got > 760 {
		t.Errorf("goodput = %v /s, want about 727", got)
	}
	// Stall half of the windows for a second each: what a noisy neighbour
	// does to a run. The whole stream's p99 moves, the quiet windows' does
	// not.
	for k := 0; k < windows; k += 2 {
		for i := 0; i < 20; i++ {
			ph.samples[k*per+40+i].done += time.Second
		}
	}
	ws, _ = cut(ph, burst, 6)
	if got := quiet(ws, p99, false); got != clean {
		t.Errorf("quiet p99 moved from %v to %v when half the windows stalled", clean, got)
	}
	if whole := quantile(latencies(ph.samples), 0.99); whole < 100*clean {
		t.Errorf("whole-stream p99 %v should show the stalls", whole)
	}
	// A phase too short for windows of windowFloor requests is one window.
	if ws, size := cut(steadyPhase(windows*windowFloor-burst, burst), burst, 6); len(ws) != 1 || size != windows*windowFloor-burst {
		t.Errorf("a short phase was cut into %d windows of %d", len(ws), size)
	}
}

// slowCaller answers each call a millisecond after it is sent and records
// how many calls were outstanding at once.
type slowCaller struct {
	mu                   sync.Mutex
	wg                   sync.WaitGroup
	outstanding, peak, n int
}

func (c *slowCaller) Go(req *rpc.Request) *rpc.Call {
	c.mu.Lock()
	c.n++
	c.outstanding++
	c.peak = max(c.peak, c.outstanding)
	c.mu.Unlock()
	call := &rpc.Call{Req: req, Resp: &rpc.Response{CallID: req.CallID, Body: req.Body}, Done: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		time.Sleep(time.Millisecond)
		c.mu.Lock()
		c.outstanding--
		c.mu.Unlock()
		close(call.Done)
	}()
	return call
}

func (c *slowCaller) Close() error {
	c.wg.Wait()
	return nil
}

func TestClosedLoopSendsWholeBursts(t *testing.T) {
	for _, burst := range []int{1, 4} {
		fx := &fixture{w: &spec{burst: burst}, bodies: [][]byte{{1}}, want: [][]byte{{1}}}
		c := &slowCaller{}
		samples := driveClosed(fx, c, time.Now(), 50*time.Millisecond, 0, &phase{})
		c.Close()
		if c.peak != burst {
			t.Errorf("burst %d: %d requests outstanding at once", burst, c.peak)
		}
		if len(samples) != c.n || len(samples) == 0 || len(samples)%burst != 0 {
			t.Fatalf("burst %d: %d samples of %d sends", burst, len(samples), c.n)
		}
		for i, s := range samples {
			if !s.ok || s.latency() < time.Millisecond {
				t.Errorf("burst %d: request %d ok=%v after %v", burst, i, s.ok, s.latency())
			}
			// The next burst waits for every answer of this one.
			if first := samples[i-i%burst]; i >= burst && first.sent < samples[i-i%burst-1].done {
				t.Errorf("burst %d: request %d sent at %v, before the previous burst was answered", burst, i, first.sent)
			}
			if s.cpu != samples[i-i%burst].cpu {
				t.Errorf("burst %d: request %d does not share its burst's CPU reading", burst, i)
			}
		}
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	children := []interval{{10, 40}, {30, 60}, {55, 58}, {80, 120}, {0, 5}}
	// Within [0,100): [0,5) + [10,60) + [80,100) = 5 + 50 + 20.
	if got := covered(0, 100, children); got != 75 {
		t.Errorf("covered = %d, want 75", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

func TestPoolRepeatsForASeed(t *testing.T) {
	shrink(t)
	w := workloadByName("burst_front_skew")
	a, err := newFixture(w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := newFixture(w, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := newFixture(w, 8, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) || !bytes.Equal(a.want[i], b.want[i]) {
			t.Fatalf("request %d differs between two pools of seed 7", i)
		}
	}
	if bytes.Equal(a.bodies[0], c.bodies[0]) {
		t.Error("seeds 7 and 8 generated the same first request")
	}
}

// shrink makes set-up cheap enough for a test.
func shrink(t *testing.T) {
	pool, warmup := poolSize, warmupReqs
	poolSize, warmupReqs = 40, 8
	t.Cleanup(func() { poolSize, warmupReqs = pool, warmup })
}

func checkMetrics(t *testing.T, r *result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(defs))
	}
	seen := make(map[string]bool)
	for _, d := range defs {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		mv, ok := r.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) || mv.Unit != d.unit {
			t.Errorf("metric %s = %v %q", d.name, mv.Value, mv.Unit)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Errorf("attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
	}
}

func TestSmokeEveryWorkloadTraced(t *testing.T) {
	if len(e2eMetrics) != 6 || len(layerMetrics) != 50 {
		t.Fatalf("%d end-to-end and %d layer metrics declared", len(e2eMetrics), len(layerMetrics))
	}
	shrink(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			// runTraced fails by itself when the ladder's rungs do not
			// sum to the client's round trip.
			r, err := runTraced(w, 3, time.Second, dir)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, layerMetrics)
			if _, err := os.Stat(filepath.Join(dir, w.name+".spans.json")); err != nil {
				t.Error(err)
			}
			v := func(name string) float64 { return r.Metrics[name].Value }
			if v("client.rtt_ms_mean") <= 0 || v("embedding.lookups_per_req") <= 0 {
				t.Error("the ladder's top or the lookup count is zero")
			}
			// The bypass predictions.
			if (w.shards == 0) != (v("rpc.sparse.calls_per_req") == 0) {
				t.Errorf("rpc.sparse.calls_per_req = %v with %d shards", v("rpc.sparse.calls_per_req"), w.shards)
			}
			if (w.front == nil) != (v("frontend.wait_ms_mean") == 0 && v("frontend.batch_reqs_mean") == 0) {
				t.Errorf("frontend.wait_ms_mean = %v, batch_reqs_mean = %v", v("frontend.wait_ms_mean"), v("frontend.batch_reqs_mean"))
			}
			if w.front != nil && v("frontend.batch_reqs_mean") < 2 {
				t.Errorf("frontend.batch_reqs_mean = %v, want bursts to coalesce", v("frontend.batch_reqs_mean"))
			}
			if w.tiered != (v("embedding.tier.hit_pct") > 0) {
				t.Errorf("embedding.tier.hit_pct = %v", v("embedding.tier.hit_pct"))
			}
			if (w.publishEvery > 0) != (v("core.publish.versions") > 0) {
				t.Errorf("core.publish.versions = %v", v("core.publish.versions"))
			}
		})
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	shrink(t)
	r, err := runE2E(workloadByName("serial_dense"), 3, time.Second, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, r, e2eMetrics)
	for _, d := range e2eMetrics {
		if r.Metrics[d.name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name].Value)
		}
	}
}

func TestCorruptedControlFailsTheRun(t *testing.T) {
	shrink(t)
	l, err := setUp(workloadByName("serial_dense"), 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	l.fx.want[5][len(l.fx.want[5])-1] ^= 1 // one bit of one score
	ph, err := drive(l.fx, l.target(), 300*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult(e2eMetrics)
	r.count(ph.samples)
	if r.Correct || r.Failed == 0 || r.Failed >= r.Attempted {
		t.Errorf("attempted %d, failed %d, correct %v: want only the corrupted request's sends to fail", r.Attempted, r.Failed, r.Correct)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, w := range workloads {
			r := newResult(e2eMetrics)
			for _, d := range e2eMetrics {
				r.set(d.name, 10)
			}
			r.set("p50_ms", p50)
			r.Attempted, r.Failed, r.Correct = 1000, failed, failed == 0
			if err := appendRecord(path, w.name, 1, 0, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", 10, 0)
	var bound float64
	for _, d := range e2eMetrics {
		if d.name == "p50_ms" {
			bound = d.bound
		}
	}
	for _, tc := range []struct {
		name   string
		p50    float64
		failed int
		ok     bool
	}{
		{"same", 10, 0, true},
		{"within", 10 * (1 + 0.9*bound), 0, true},
		{"better", 5, 0, true},
		{"slower", 10 * (1 + 1.15*bound), 0, false},
		{"failing", 10, 1, false},
	} {
		var out strings.Builder
		ok, err := compareFiles(&out, parent, write(tc.name+".jsonl", tc.p50, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare ok = %v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		if !tc.ok && !strings.Contains(out.String(), "outside bound") {
			t.Errorf("%s: no line says outside bound", tc.name)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads,
// and the tables in workloads.go, which the command prints from, the same.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here (or their reasons differ)", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != better || g.Bound != d.bound {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v here", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, e2eMetrics)
	same("per_layer", bj.PerLayer, layerMetrics)
}
