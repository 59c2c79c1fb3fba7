package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/trace"
)

// Tracer bounds and anchor.
const (
	// mainShard names the shard whose clock anchors breakdowns.
	mainShard = "main"
	// maxPending bounds in-flight sampled traces; the oldest is evicted
	// unfinished when a new one would exceed it.
	maxPending = 64
	// maxSpans bounds spans buffered per sampled trace; excess spans are
	// dropped and counted.
	maxSpans = 512
	// maxSummaries bounds the finished-trace ring.
	maxSummaries = 256
)

// TraceSummary is one finished (or evicted) live-traced request.
type TraceSummary struct {
	TraceID      uint64
	When         time.Time
	E2E          time.Duration
	DeadlineMiss bool
	// Spans is how many spans the tracer buffered for this trace (0 for
	// deadline-miss-only summaries of unsampled traces).
	Spans int
	// Evicted marks a trace that never saw Finish (buffer pressure).
	Evicted bool
	// Breakdown is the per-request attribution, when the spans allowed
	// one to be reconstructed.
	Breakdown    trace.RequestBreakdown
	HasBreakdown bool
}

// Tracer implements trace.SpanSink: it tees sampled traces' spans out
// of the shard recorders as they are recorded, and on Finish folds them
// into a RequestBreakdown via the offline analyzer — live per-request
// attribution with bounded buffers. Attach with Recorder.SetSink; one
// Tracer serves all of a deployment's recorders.
type Tracer struct {
	sampleEvery int

	sampled  *Counter // traces that buffered at least one span
	finished *Counter // summaries recorded via Finish
	missed   *Counter // deadline-miss summaries recorded
	evicted  *Counter // pending traces evicted unfinished
	overflow *Counter // spans dropped by the per-trace cap

	mu      sync.Mutex
	pending map[uint64]*pendingTrace
	order   []uint64 // insertion order of pending trace IDs (may hold stale entries)
	ring    []TraceSummary
	next    int
	filled  bool
}

type pendingTrace struct {
	spans []trace.Span
}

// NewTracer builds a tracer and registers its own health counters
// (trace.sampled, trace.finished, trace.missed, trace.evicted,
// trace.span_overflow) on reg. It samples one trace in every
// sampleEvery by trace ID (a deterministic modulo, so every shard
// samples the same traces without coordination — trace IDs propagate on
// the wire); 1 samples everything, 0 disables periodic sampling. Every
// request that missed its deadline or was shed also gets a summary,
// spanless unless sampled.
func NewTracer(reg *Registry, sampleEvery int) *Tracer {
	t := &Tracer{
		sampleEvery: sampleEvery,
		sampled:     reg.Counter("trace.sampled"),
		finished:    reg.Counter("trace.finished"),
		missed:      reg.Counter("trace.missed"),
		evicted:     reg.Counter("trace.evicted"),
		overflow:    reg.Counter("trace.span_overflow"),
		pending:     make(map[uint64]*pendingTrace),
	}
	return t
}

// Sampled reports whether traceID is in the deterministic sample.
func (t *Tracer) Sampled(traceID uint64) bool {
	if t == nil {
		return false
	}
	e := t.sampleEvery
	if e <= 0 || traceID == 0 {
		return false
	}
	if e == 1 {
		return true
	}
	// ID allocators start at 1, so %e == 1 samples the first request.
	return traceID%uint64(e) == 1
}

// ConsumeSpan implements trace.SpanSink. The unsampled path is one
// modulo and a compare — cheap enough to sit inside Recorder.Record.
func (t *Tracer) ConsumeSpan(s trace.Span) {
	if t == nil || !t.Sampled(s.TraceID) {
		return
	}
	t.mu.Lock()
	p := t.pending[s.TraceID]
	if p == nil {
		if len(t.pending) >= maxPending {
			t.evictOldestLocked()
		}
		p = &pendingTrace{}
		t.pending[s.TraceID] = p
		t.order = append(t.order, s.TraceID)
	}
	if len(p.spans) < maxSpans {
		p.spans = append(p.spans, s)
	} else {
		t.mu.Unlock()
		t.overflow.Inc()
		return
	}
	t.mu.Unlock()
}

// evictOldestLocked pushes the oldest pending trace into the ring as
// unfinished. Caller holds t.mu.
func (t *Tracer) evictOldestLocked() {
	for len(t.order) > 0 {
		id := t.order[0]
		t.order = t.order[1:]
		p, ok := t.pending[id]
		if !ok {
			continue // finished already; stale order entry
		}
		delete(t.pending, id)
		t.pushLocked(TraceSummary{
			TraceID: id, When: time.Now(), Spans: len(p.spans), Evicted: true,
		})
		t.evicted.Inc()
		return
	}
}

// pushLocked appends a summary to the bounded ring. Caller holds t.mu.
func (t *Tracer) pushLocked(s TraceSummary) {
	if len(t.ring) < maxSummaries {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[t.next] = s
	t.next = (t.next + 1) % maxSummaries
	t.filled = true
}

// Finish completes a request's live trace: the serving entry point
// calls it with the request's end-to-end latency and whether its
// deadline was missed (shed or served late). Sampled traces get a full
// breakdown from their buffered spans; unsampled deadline misses are
// recorded as spanless summaries.
func (t *Tracer) Finish(traceID uint64, e2e time.Duration, deadlineMiss bool) {
	if t == nil {
		return
	}
	sampled := t.Sampled(traceID)
	if !sampled && !deadlineMiss {
		return
	}
	var spans []trace.Span
	if sampled {
		t.mu.Lock()
		if p, ok := t.pending[traceID]; ok {
			delete(t.pending, traceID)
			spans = p.spans
		}
		// The order slice accumulates stale entries as traces finish;
		// compact it once it outgrows the pending set by enough to matter.
		if len(t.order) > 4*maxPending {
			live := t.order[:0]
			for _, id := range t.order {
				if _, ok := t.pending[id]; ok {
					live = append(live, id)
				}
			}
			t.order = live
		}
		t.mu.Unlock()
	}

	sum := TraceSummary{
		TraceID: traceID, When: time.Now(), E2E: e2e,
		DeadlineMiss: deadlineMiss, Spans: len(spans),
	}
	if len(spans) > 0 {
		// The serving entry finishes before the RPC server records the
		// main-shard request span, so synthesize one from the measured
		// e2e when it is missing — the analyzer needs it as the anchor.
		hasMain := false
		for _, s := range spans {
			if s.Layer == trace.LayerRequest && s.Shard == mainShard {
				hasMain = true
				break
			}
		}
		if !hasMain {
			spans = append(spans, trace.Span{
				TraceID: traceID, Shard: mainShard,
				Layer: trace.LayerRequest, Name: "request", Dur: e2e,
			})
		}
		if b, ok := trace.AnalyzeOne(spans, mainShard); ok {
			sum.Breakdown = b
			sum.HasBreakdown = true
		}
	}

	t.mu.Lock()
	t.pushLocked(sum)
	t.mu.Unlock()

	if sampled && sum.Spans > 0 {
		t.sampled.Inc()
	}
	t.finished.Inc()
	if deadlineMiss {
		t.missed.Inc()
	}
}

// Summaries returns the ring's contents, oldest first.
func (t *Tracer) Summaries() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filled {
		return append([]TraceSummary(nil), t.ring...)
	}
	out := make([]TraceSummary, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// WriteText renders the summaries for the /traces endpoint, oldest
// first.
func (t *Tracer) WriteText(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, s := range t.Summaries() {
		status := "ok"
		switch {
		case s.Evicted:
			status = "evicted"
		case s.DeadlineMiss:
			status = "miss"
		}
		if _, err := fmt.Fprintf(w, "trace %d %s e2e=%v spans=%d", s.TraceID, status, s.E2E.Round(time.Microsecond), s.Spans); err != nil {
			return err
		}
		if s.HasBreakdown {
			b := s.Breakdown
			if _, err := fmt.Fprintf(w, " dense=%v embedded=%v serde=%v service=%v netoh=%v rpc=%d",
				b.DenseOps.Round(time.Microsecond), b.EmbeddedPortion.Round(time.Microsecond),
				b.MainSerDe.Round(time.Microsecond), b.MainService.Round(time.Microsecond),
				b.MainNetOverhead.Round(time.Microsecond), b.RPCCalls); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

var _ trace.SpanSink = (*Tracer)(nil)
