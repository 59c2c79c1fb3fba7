// Package trace implements the paper's cross-layer distributed tracing
// framework (Section IV): lightweight instrumentation spanning the RPC
// service layer, the ML framework layer, and individual ML operators, with
// trace-context propagation across shards and an offline analyzer that
// reconstructs per-request latency and compute attributions.
//
// Design points taken from the paper:
//   - "At each trace point, metadata specific to the layer and a
//     wall-clock timestamp are logged to a lock-free buffer" — Recorder
//     appends spans through an atomic cursor into pointer-free chunks
//     allocated as they are reached (store.go).
//   - "Wall-clock time is desirable because its ordering helps achieve a
//     useful trace visualization ... most spans are small and sequential,
//     enabling wall-clock time as a proxy for CPU time."
//   - "Because the clocks on disparate servers will be skewed, network
//     latency is measured as the difference between the outstanding
//     request measured at the main shard and the end-to-end service
//     latency measured at the sparse shard" — see analyzer.go. Durations
//     are skew-immune; only cross-shard timestamp comparison is avoided.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Layer tags which level of the stack a span was recorded at. The set
// mirrors the attribution categories of Figs. 8 and 9.
type Layer int

// Trace layers.
const (
	// LayerRequest is the end-to-end service span for one request at one
	// shard (at the main shard: full E2E; at a sparse shard: the service
	// time for one RPC call).
	LayerRequest Layer = iota
	// LayerSerDe covers request/response serialization and deserialization.
	LayerSerDe
	// LayerService is RPC service boilerplate: dispatch, context setup,
	// response framing — anything in the service handler that is neither
	// serde nor framework execution.
	LayerService
	// LayerNetOverhead is ML-framework time not spent inside operators
	// (scheduling, bookkeeping of async ops) — the paper's "Caffe2 Net
	// Overhead".
	LayerNetOverhead
	// LayerOp is one ML operator execution.
	LayerOp
	// LayerRPCCall is the outstanding time of one remote call measured at
	// the caller (issue → response future resolved).
	LayerRPCCall
	// LayerMigration covers online-resharding work: row-range streaming,
	// staging installs, and cutovers. Kept distinct from the serving
	// layers so migration cost is visible in timelines without polluting
	// the request-path attribution (the analyzer ignores it).
	LayerMigration
)

var layerNames = [...]string{
	LayerRequest:     "Request",
	LayerSerDe:       "RPC Ser/De",
	LayerService:     "RPC Service Function",
	LayerNetOverhead: "Net Overhead",
	LayerOp:          "Operator",
	LayerRPCCall:     "RPC Call",
	LayerMigration:   "Migration",
}

// String returns the figure-legend name of the layer.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "Unknown"
}

// Span is one timed event. Start is taken from the recording shard's local
// clock (which may be skewed); Dur is skew-immune.
type Span struct {
	// TraceID groups all spans of one inference request across shards.
	TraceID uint64
	// CallID links a LayerRPCCall span at the caller with the
	// LayerRequest/other spans it produced at the callee. Zero when the
	// span does not belong to a remote call.
	CallID uint64
	// Shard names the recording shard ("main", "sparse1", ...).
	Shard string
	// Layer is the stack level.
	Layer Layer
	// Kind is the operator attribution class name for LayerOp spans
	// (e.g. "Dense", "Sparse"); empty otherwise.
	Kind string
	// Net names the ML net for framework-level spans ("net1", "net2").
	Net string
	// Name identifies the operator or event.
	Name string
	// Start is the shard-local wall-clock start time.
	Start time.Time
	// Dur is the span duration.
	Dur time.Duration
}

// SpanSink observes spans as they are recorded — the live-telemetry tee
// (obs.Tracer implements it). Consumers must be cheap on unsampled spans
// and must not call back into the recorder.
type SpanSink interface {
	ConsumeSpan(Span)
}

// sinkBox wraps the interface value so an atomic.Pointer can hold it.
type sinkBox struct{ sink SpanSink }

// Recorder collects spans for one shard. Appends go through an atomic
// cursor into the span store — no locks on the hot path, matching the
// paper's lock-free trace buffer. When the store holds its capacity,
// further spans are dropped and counted; sizing it is the harness's job.
type Recorder struct {
	shard string
	// epoch is what stored start times count from.
	epoch time.Time
	// chunks has one entry per chunkSpans of capacity, nil until reached.
	chunks   []atomic.Pointer[chunk]
	capacity int64
	cursor   atomic.Int64
	drops    atomic.Int64
	// lap counts Resets (from 1): a slot holds a span only if its meta
	// carries the current lap, so a rewind leaves nothing to clear.
	lap     atomic.Uint64
	names   atomic.Pointer[nameTable]
	namesMu sync.Mutex // serialises new names
	// sink, when set, sees every span Record accepts — including ones
	// the full store drops, so live tracing keeps working after the
	// offline buffer is exhausted.
	sink atomic.Pointer[sinkBox]
	// skew is added to recorded timestamps to simulate an unsynchronized
	// shard clock; the analyzer must remain correct in its presence.
	skew time.Duration

	idCounter atomic.Uint64
}

// NewRecorder creates a recorder for a shard with capacity for n spans.
func NewRecorder(shard string, n int) *Recorder {
	if n < 1 {
		n = 1
	}
	r := &Recorder{
		shard: shard, epoch: time.Now(), capacity: int64(n),
		chunks: make([]atomic.Pointer[chunk], (n+chunkSpans-1)/chunkSpans),
	}
	r.lap.Store(1)
	r.names.Store(noNames)
	return r
}

// SetClockSkew configures the simulated clock skew applied to Start
// timestamps. Call before recording begins.
func (r *Recorder) SetClockSkew(d time.Duration) { r.skew = d }

// Shard returns the shard name this recorder tags spans with.
func (r *Recorder) Shard() string { return r.shard }

// Now returns the shard-local (possibly skewed) time.
func (r *Recorder) Now() time.Time { return time.Now().Add(r.skew) }

// Record appends a span. The span's Shard is overwritten with the
// recorder's shard, and Start is adjusted by the configured skew if the
// caller captured it from the real clock via time.Now (callers should use
// r.Now for Start; Record applies no further adjustment).
func (r *Recorder) Record(s Span) {
	s.Shard = r.shard
	if b := r.sink.Load(); b != nil {
		b.sink.ConsumeSpan(s)
	}
	// A full store is where a long-serving role spends its life: loading
	// the cursor first makes a drop cost one atomic add, not two.
	if r.cursor.Load() < r.capacity {
		if idx := r.cursor.Add(1) - 1; idx < r.capacity {
			r.put(idx, &s)
			return
		}
	}
	r.drops.Add(1)
}

// SetSink installs (or, with nil, removes) a live span tee. Swaps are
// atomic with respect to concurrent Record calls.
func (r *Recorder) SetSink(s SpanSink) {
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{sink: s})
}

// NextID returns a recorder-unique id, combined with the shard for
// call-id generation. IDs are never zero.
func (r *Recorder) NextID() uint64 { return r.idCounter.Add(1) }

// Drops returns how many spans were discarded because the store was full.
func (r *Recorder) Drops() int64 { return r.drops.Load() }

// Len returns the number of recorded spans.
func (r *Recorder) Len() int { return int(min(r.cursor.Load(), r.capacity)) }

// Spans returns all recorded spans, rebuilt from the store. Like
// AppendSpans it may run beside Record, and then may miss spans whose
// Record has not returned.
func (r *Recorder) Spans() []Span { return r.AppendSpans(make([]Span, 0, r.Len())) }

// Reset discards all recorded spans (drops counter included) and keeps
// the chunks and names they used. Call it on a recorder nothing is
// recording into or reading.
func (r *Recorder) Reset() {
	r.lap.Add(1)
	r.cursor.Store(0)
	r.drops.Store(0)
}

// Context is the trace metadata propagated with every request and across
// every RPC hop, mirroring Thrift's RequestContext propagation.
type Context struct {
	TraceID uint64
	CallID  uint64
}

// String renders the context for debugging.
func (c Context) String() string {
	return fmt.Sprintf("trace=%d call=%d", c.TraceID, c.CallID)
}

// IDAllocator hands out process-unique trace ids.
type IDAllocator struct {
	next atomic.Uint64
}

// NewTraceID returns a fresh non-zero trace id.
func (a *IDAllocator) NewTraceID() uint64 { return a.next.Add(1) }

// Collector merges spans from many recorders for offline analysis.
type Collector struct {
	mu        sync.Mutex
	recorders []*Recorder
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach registers a recorder whose spans Gather will include.
func (c *Collector) Attach(r *Recorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recorders = append(c.recorders, r)
}

// Gather snapshots all spans from all attached recorders.
func (c *Collector) Gather() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.recorders {
		n += r.Len()
	}
	out := make([]Span, 0, n)
	for _, r := range c.recorders {
		out = r.AppendSpans(out)
	}
	return out
}

// Reset clears every attached recorder.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recorders {
		r.Reset()
	}
}

// TotalDrops sums dropped spans across recorders; experiments assert this
// is zero so attributions are complete.
func (c *Collector) TotalDrops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, r := range c.recorders {
		n += r.Drops()
	}
	return n
}
