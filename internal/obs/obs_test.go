package obs

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestHistBucketRoundTrip(t *testing.T) {
	// Every representable value must land in a bucket whose bounds
	// contain it, and bucket indices must be monotone in the value.
	vals := []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1023, 1024,
		1 << 20, (1 << 20) + 12345, 1 << 40, 1<<62 + 17}
	prev := -1
	for _, v := range vals {
		i := histBucket(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histBucket(%d) = %d out of range", v, i)
		}
		if i < prev {
			t.Errorf("histBucket not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		lo, hi := histBucketBounds(i)
		if v < lo || v >= hi {
			t.Errorf("value %d landed in bucket %d [%d,%d)", v, i, lo, hi)
		}
	}
	if histBucket(-5) != 0 {
		t.Error("negative values must clamp to bucket 0")
	}
	if b := histBucket(1<<63 - 1); b >= histBuckets {
		t.Errorf("max int64 bucket %d exceeds table", b)
	}
}

func TestHistBucketBoundsContiguous(t *testing.T) {
	for i := 0; i < histBuckets-1; i++ {
		_, hi := histBucketBounds(i)
		lo, _ := histBucketBounds(i + 1)
		if hi != lo {
			t.Fatalf("gap between bucket %d (hi=%d) and %d (lo=%d)", i, hi, i+1, lo)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// The reconstruction contract: any quantile lands inside the value's
	// bucket, whose width is at most 1/4 of the value (for v ≥ 4; below
	// that buckets have width 1) — so the midpoint is within 1/8 relative
	// error of any value in the bucket.
	for _, v := range []int64{1, 9, 137, 4096, 99999, 1 << 30} {
		var h Histogram
		h.Observe(v)
		got := h.Snapshot().Quantile(0.5)
		lo, hi := histBucketBounds(histBucket(v))
		if got < float64(lo) || got > float64(hi) {
			t.Errorf("Quantile after Observe(%d) = %.1f outside bucket [%d,%d]", v, got, lo, hi)
		}
		if width := hi - lo; v >= 4 && width > v/4 {
			t.Errorf("bucket width %d for value %d exceeds v/4", width, v)
		}
	}
}

func TestHistQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for i := 0; i < 5000; i++ {
		h.Observe(rng.Int63n(1_000_000))
	}
	s := h.Snapshot()
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%.2f gives %f < %f", q, v, prev)
		}
		prev = v
	}
	if s.Quantile(1) > s.Max() {
		t.Error("q=1 exceeds Max")
	}
}

func TestHistSnapshotMergeSub(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i <= 100; i++ {
		a.Observe(i * 10)
		b.Observe(i * 1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	merged := sa
	merged.Counts = append([]int64(nil), sa.Counts...)
	merged.Merge(sb)
	if merged.Count != 200 || merged.Sum != sa.Sum+sb.Sum {
		t.Fatalf("merge count=%d sum=%d", merged.Count, merged.Sum)
	}

	// A combined histogram fed both streams must agree exactly: the
	// bucket layout is deterministic, so merge ≡ combined.
	var c Histogram
	for i := int64(1); i <= 100; i++ {
		c.Observe(i * 10)
		c.Observe(i * 1000)
	}
	sc := c.Snapshot()
	for i := range sc.Counts {
		if sc.Counts[i] != merged.Counts[i] {
			t.Fatalf("bucket %d: merged=%d combined=%d", i, merged.Counts[i], sc.Counts[i])
		}
	}

	// Sub recovers the second stream's window.
	win := merged
	win.Counts = append([]int64(nil), merged.Counts...)
	win.Sub(sa)
	if win.Count != sb.Count || win.Sum != sb.Sum {
		t.Errorf("sub window count=%d sum=%d, want %d/%d", win.Count, win.Sum, sb.Count, sb.Sum)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if r.Counter("x") != c {
		t.Error("same name must return same handle")
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	g.SetMax(9)
	if g.Load() != 9 {
		t.Errorf("gauge = %d, want 9", g.Load())
	}
}

func TestDiscardRegistryHandsOutNilHandles(t *testing.T) {
	for _, r := range []*Registry{nil, Discard()} {
		if !r.Discarding() {
			t.Fatal("registry should be discarding")
		}
		// All of these must be no-ops, not panics.
		r.Counter("a").Add(1)
		r.Gauge("b").Set(2)
		r.Histogram("c").Observe(3)
		r.RegisterProbe("d", func() int64 { return 4 })
		r.RegisterProbeGroup(func(emit func(string, int64)) { emit("e", 5) })
		s := r.Snapshot()
		if len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
			t.Error("discard registry produced a non-empty snapshot")
		}
	}
}

func TestSnapshotDiffAndProbes(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(10)
	r.Gauge("depth").Set(3)
	r.Histogram("lat_ns").Observe(1000)
	r.RegisterProbe("probe.v", func() int64 { return 42 })
	r.RegisterProbeGroup(func(emit func(string, int64)) {
		emit("grp.a", 1)
		emit("grp.b", 2)
	})

	s1 := r.Snapshot()
	if s1.Counter("reqs") != 10 || s1.Gauge("depth") != 3 ||
		s1.Gauge("probe.v") != 42 || s1.Gauge("grp.a") != 1 || s1.Gauge("grp.b") != 2 {
		t.Fatalf("snapshot values wrong: %+v", s1)
	}
	r.Counter("reqs").Add(5)
	r.Histogram("lat_ns").Observe(2000)
	s2 := r.Snapshot()
	d := s2.Diff(s1)
	if d.Counter("reqs") != 5 {
		t.Errorf("diff counter = %d, want 5", d.Counter("reqs"))
	}
	if h, _ := d.Hist("lat_ns"); h.Count != 1 {
		t.Errorf("diff hist count = %d, want 1", h.Count)
	}
	if d.Gauge("depth") != 3 {
		t.Error("gauges must keep current value in a diff")
	}
}

func TestSnapshotJSONSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Gauge("g").Set(-2)
	r.Histogram("h_ns").Observe(123456)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		At         string           `json:"at"`
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   int64   `json:"sum"`
			Mean  float64 `json:"mean"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
			Max   float64 `json:"max"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("schema mismatch: %v\n%s", err, b)
	}
	if _, err := time.Parse(time.RFC3339Nano, decoded.At); err != nil {
		t.Errorf("at field not RFC3339Nano: %v", err)
	}
	if decoded.Counters["a.b"] != 7 || decoded.Gauges["g"] != -2 {
		t.Errorf("decoded values wrong: %+v", decoded)
	}
	h := decoded.Histograms["h_ns"]
	if h.Count != 1 || h.Sum != 123456 || h.P50 <= 0 || h.P99 < h.P50 || h.Max < h.P99 {
		t.Errorf("histogram stats wrong: %+v", h)
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Counter("a").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(5)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "counter a 1") || !strings.Contains(out, "gauge g 1") ||
		!strings.Contains(out, "hist h count=1") {
		t.Errorf("text rendering wrong:\n%s", out)
	}
	if strings.Index(out, "counter a") > strings.Index(out, "counter z") {
		t.Error("counters not sorted")
	}
}

func TestTracerSampling(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 16)
	if tr.Sampled(0) {
		t.Error("trace id 0 must never sample")
	}
	if !tr.Sampled(1) || !tr.Sampled(17) {
		t.Error("ids 1 and 17 should sample at every=16")
	}
	if tr.Sampled(2) || tr.Sampled(16) {
		t.Error("ids 2 and 16 should not sample at every=16")
	}
	all := NewTracer(r, 1)
	for id := uint64(1); id < 10; id++ {
		if !all.Sampled(id) {
			t.Errorf("every=1 must sample id %d", id)
		}
	}
	off := NewTracer(r, 0)
	if off.Sampled(1) {
		t.Error("every=0 must disable sampling")
	}
}

// TestNilTracerSafe pins the handle contract: a nil *Tracer (tracing
// disabled) must absorb every exported call without panicking, the same
// way nil Counter/Gauge handles do.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Sampled(1) {
		t.Error("nil tracer must not sample")
	}
	tr.ConsumeSpan(trace.Span{TraceID: 1})
	tr.Finish(1, time.Millisecond, true)
	if s := tr.Summaries(); s != nil {
		t.Errorf("nil tracer Summaries = %v, want nil", s)
	}
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil tracer WriteText = %v, wrote %q", err, sb.String())
	}
}

func TestTracerFinishProducesBreakdown(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 1)
	rec := trace.NewRecorder("main", 64)
	rec.SetSink(tr)
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	rec.Record(trace.Span{TraceID: 1, Layer: trace.LayerOp, Kind: "Dense", Net: "net1", Dur: ms(8)})
	rec.Record(trace.Span{TraceID: 1, Layer: trace.LayerSerDe, Dur: ms(2)})
	// No main request span recorded: Finish must synthesize it from e2e.
	tr.Finish(1, ms(15), false)

	sums := tr.Summaries()
	if len(sums) != 1 {
		t.Fatalf("got %d summaries", len(sums))
	}
	s := sums[0]
	if !s.HasBreakdown || s.E2E != ms(15) || s.Spans != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Breakdown.DenseOps != ms(8) || s.Breakdown.MainSerDe != ms(2) || s.Breakdown.E2E != ms(15) {
		t.Errorf("breakdown = %+v", s.Breakdown)
	}
	snap := r.Snapshot()
	if snap.Counter("trace.sampled") != 1 || snap.Counter("trace.finished") != 1 {
		t.Errorf("tracer counters: %+v", snap.Counters)
	}
}

func TestTracerDeadlineMissOnly(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 1000)
	tr.Finish(2, time.Millisecond, true)  // unsampled, missed → summary
	tr.Finish(3, time.Millisecond, false) // unsampled, ok → dropped
	sums := tr.Summaries()
	if len(sums) != 1 || sums[0].TraceID != 2 || !sums[0].DeadlineMiss {
		t.Fatalf("summaries = %+v", sums)
	}
	if r.Snapshot().Counter("trace.missed") != 1 {
		t.Error("trace.missed not counted")
	}
}

func TestTracerEviction(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 1)
	for id := uint64(1); id <= maxPending+2; id++ {
		tr.ConsumeSpan(trace.Span{TraceID: id, Layer: trace.LayerOp})
	}
	// ids 1 and 2 must have been evicted to admit the last two.
	if got := r.Snapshot().Counter("trace.evicted"); got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
	var evicted []uint64
	for _, s := range tr.Summaries() {
		if s.Evicted {
			evicted = append(evicted, s.TraceID)
		}
	}
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Errorf("evicted ids = %v, want [1 2]", evicted)
	}
	// The still-pending traces finish normally.
	tr.Finish(3, time.Millisecond, false)
	if got := r.Snapshot().Counter("trace.finished"); got != 1 {
		t.Errorf("finished = %d", got)
	}
}

func TestTracerSpanOverflow(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 1)
	for i := 0; i < maxSpans+7; i++ {
		tr.ConsumeSpan(trace.Span{TraceID: 1, Layer: trace.LayerOp})
	}
	if got := r.Snapshot().Counter("trace.span_overflow"); got != 7 {
		t.Errorf("overflow = %d, want 7", got)
	}
	tr.Finish(1, time.Millisecond, false)
	if s := tr.Summaries()[0]; s.Spans != maxSpans {
		t.Errorf("buffered spans = %d, want %d", s.Spans, maxSpans)
	}
}

// TestTracerWriteText pins the /traces rendering: one line per summary,
// oldest first, naming its status, with the breakdown when the spans
// allowed one.
// TestHandlerServesEndpoints drives the telemetry mux in process: the
// text and JSON snapshots, the trace summaries, and the 404 a deployment
// without a tracer answers on /traces.
func TestHandlerServesEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("depth").Add(2)
	r.Histogram("lat_ns").Observe(4000)
	tr := NewTracer(r, 1)
	tr.Finish(1, time.Millisecond, false)

	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	h := Handler(r, tr)
	if w := get(h, "/metrics"); w.Code != http.StatusOK ||
		!strings.Contains(w.Body.String(), "counter reqs 3") || !strings.Contains(w.Body.String(), "gauge depth 2") {
		t.Errorf("/metrics = %d:\n%s", w.Code, w.Body)
	}
	w := get(h, "/metrics.json")
	var decoded struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &decoded); err != nil || decoded.Counters["reqs"] != 3 {
		t.Errorf("/metrics.json = %d %v:\n%s", w.Code, err, w.Body)
	}
	if w := get(h, "/traces"); w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "trace 1 ok") {
		t.Errorf("/traces = %d:\n%s", w.Code, w.Body)
	}
	if w := get(Handler(r, nil), "/traces"); w.Code != http.StatusNotFound {
		t.Errorf("/traces without a tracer = %d, want 404", w.Code)
	}
	if q := r.Snapshot().Quantile("lat_ns", 0.5); q <= 0 {
		t.Errorf("Quantile(lat_ns, 0.5) = %v, want > 0", q)
	}
}

func TestTracerWriteText(t *testing.T) {
	tr := NewTracer(NewRegistry(), 1)
	// One more pending trace than the bound evicts the first, id 10.
	for id := uint64(10); id <= 10+maxPending; id++ {
		tr.ConsumeSpan(trace.Span{TraceID: id, Shard: mainShard, Layer: trace.LayerOp, Kind: "Dense", Net: "net1", Dur: time.Millisecond})
	}
	tr.Finish(11, 2*time.Millisecond, false)
	tr.Finish(2, 3*time.Millisecond, true) // sampled, but no span buffered
	var sb strings.Builder
	if err := tr.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	want := []string{
		"trace 10 evicted e2e=0s spans=1",
		"trace 11 ok e2e=2ms spans=1 dense=1ms ",
		"trace 2 miss e2e=3ms spans=0",
	}
	if len(lines) != len(want) {
		t.Fatalf("WriteText wrote %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i]+" ", w) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Finish(1, time.Millisecond, true) // must not panic
}

func TestSummariesRingOrder(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r, 0) // unsampled: deadline misses only
	for id := uint64(1); id <= maxSummaries+2; id++ {
		tr.Finish(id, time.Duration(id), true)
	}
	sums := tr.Summaries()
	if len(sums) != maxSummaries {
		t.Fatalf("ring holds %d, want %d", len(sums), maxSummaries)
	}
	// The two oldest were overwritten; the rest read oldest first.
	for i, s := range sums {
		if want := uint64(i + 3); s.TraceID != want {
			t.Fatalf("ring[%d] = %d, want %d (oldest first)", i, s.TraceID, want)
		}
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkCounterAddDiscard(b *testing.B) {
	c := Discard().Counter("bench")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ns")
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*1664525 + 1013904223
			if v < 0 {
				v = -v
			}
		}
	})
}

func BenchmarkTracerConsumeUnsampled(b *testing.B) {
	r := NewRegistry()
	tr := NewTracer(r, 1024)
	s := trace.Span{TraceID: 2, Layer: trace.LayerOp} // 2%1024 != 1 → unsampled
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.ConsumeSpan(s)
		}
	})
}
