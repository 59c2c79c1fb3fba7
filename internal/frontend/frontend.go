// Package frontend is the SLA-aware serving frontend that sits between
// the RPC front door and the inference engine. The paper frames
// recommendation inference as an SLA-bound service: "recommendation
// results are expected within a timed window ... If SLA targets cannot be
// satisfied, the inference request is dropped in favor of a potentially
// lower quality recommendation result" (Section II). The engine alone
// executes exactly one request per call; under heavy open-loop traffic
// that collapses — every queued request eventually completes, far too
// late to be useful, wasting the compute that could have served fresher
// requests.
//
// The frontend supplies the three production mechanisms that prevent the
// collapse:
//
//   - dynamic batching: ranking requests queued together are coalesced
//     into one engine execution (core.Engine.Admit, then the admission's
//     Execute), amortizing per-execution overheads exactly as the paper's
//     batch-level parallelism amortizes per-batch overheads. A batch is
//     bounded by a max request/item count and a gather window; each group
//     taken off the queue inside the window executes at once, side by
//     side with the batch's other groups;
//
//   - admission control: a bounded queue sheds arrivals when full, and
//     requests whose remaining SLA budget cannot cover the estimated
//     service time are dropped early — recorded as fallbacks (the paper's
//     degraded recommendation), not timeouts, so no engine work is wasted
//     on answers nobody will use;
//
//   - load-shed accounting: every rejection carries the "shed:" wire
//     prefix that serve.Result books as a fallback, separating deliberate
//     quality degradation from hard failures in SLA reports.
//
// Hedging of slow sparse-shard RPCs lives in internal/replication; the
// cluster wires hedged callers into the engine underneath this frontend.
package frontend

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Executor runs coalesced batches; *core.Engine is the real
// implementation. Validate lets the frontend reject a malformed request
// at admission, before it can be coalesced with — and fail alongside —
// healthy neighbors. Each group runs on a goroutine of its own as one
// ExecuteBatch or, where the executor also has Admit, as the admission's
// Execute after an Admit on the dispatcher.
type Executor interface {
	Validate(req *core.RankingRequest) error
	ExecuteBatch(items []core.BatchItem) ([][]float32, error)
}

// ErrShed is wrapped by every load-shedding rejection. Its message —
// and therefore every wrapping error's message — starts with
// rpc.ShedMsgPrefix, the wire contract serve.IsFallback keys on once
// the error has crossed an RPC boundary as a string.
var ErrShed = errors.New(rpc.ShedMsgPrefix + " request dropped for SLA fallback")

// ErrClosed reports a Submit against a closed frontend.
var ErrClosed = errors.New("frontend: closed")

// maxBatchItems soft-caps the total items per execution: gathering stops
// once the batch reaches it.
const maxBatchItems = 1024

// Config tunes the frontend. Zero values take the documented defaults.
type Config struct {
	// MaxBatchRequests caps how many requests coalesce into one engine
	// execution (default 16).
	MaxBatchRequests int
	// BatchWait is the deadline-bounded gather window: after the first
	// request of a batch arrives, the batcher keeps taking arrivals for at
	// most this long. Each group of arrivals executes as it is taken, so
	// the window delays no answer: it bounds how long a batch keeps
	// opening groups before the dispatcher waits for them.
	// 0 dispatches immediately, still coalescing whatever is already
	// queued — pure backlog coalescing with no added latency.
	BatchWait time.Duration
	// MaxQueue bounds the admission queue (default 256). Arrivals beyond
	// it are shed immediately.
	MaxQueue int
	// Budget is the per-request SLA budget counted from Submit. Requests
	// that cannot complete inside it — at admission or when their group is
	// taken off the queue — are shed. 0 disables deadline-based shedding.
	Budget time.Duration
	// Obs receives the frontend's live metrics (frontend.* namespace):
	// the admission/batching counters as snapshot-time probes plus
	// per-stage latency histograms. Nil or obs.Discard() leaves only the
	// internal counters (which Stats and admission pricing always use).
	Obs *obs.Registry
	// Tracer, when set, finishes each submitted request's live trace with
	// its measured frontend latency; sheds finish as deadline misses.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxBatchRequests <= 0 {
		c.MaxBatchRequests = 16
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	return c
}

// pending is one request waiting in the frontend.
type pending struct {
	item     core.BatchItem
	enq      time.Time // when Submit queued it (queue-wait accounting)
	deadline time.Time // zero when Budget is 0
	// probe marks a request admitted past a failing budget estimate so
	// the estimator keeps learning; it sheds only on a hard-expired
	// deadline, never on the (possibly stale) estimate.
	probe  bool
	scores []float32
	err    error
	done   chan struct{}
}

// probeEvery admits one of every probeEvery over-budget requests anyway.
// Without probes a cold-start outlier (or a transient load spike) locks
// the estimator above the budget, everything sheds, nothing executes,
// and the estimate can never recover — an admission-control death
// spiral. Probes bound the waste while restoring feedback.
const probeEvery = 16

// Frontend schedules ranking requests onto an Executor. Safe for
// concurrent Submit calls; one dispatcher goroutine owns batching.
type Frontend struct {
	cfg   Config
	exec  Executor
	adm   admitter // exec, when it can Admit
	queue chan *pending

	mu     sync.Mutex
	closed bool

	est       estimator
	probeTick atomic.Uint64
	stats     counters
	met       frontendMetrics
	tracer    *obs.Tracer
	wg        sync.WaitGroup
}

// frontendMetrics holds the frontend's histogram handles (nil no-ops
// without a registry). The monotonic counters stay in the internal
// counters struct — admission pricing reads them — and are exported to
// the registry as snapshot-time probes instead of being duplicated.
type frontendMetrics struct {
	queueWaitNs   *obs.Histogram // Submit enqueue → deadline re-check
	gatherNs      *obs.Histogram // batch opener dequeued → window close
	execNs        *obs.Histogram // a batch's wall span: first execution start → last scores
	batchRequests *obs.Histogram // requests per dispatched batch
	batchItems    *obs.Histogram // items per dispatched batch
}

// New starts a frontend over exec. Call Close to drain and stop.
func New(exec Executor, cfg Config) *Frontend {
	f := &Frontend{cfg: cfg.withDefaults(), exec: exec, tracer: cfg.Tracer}
	f.adm, _ = exec.(admitter)
	f.queue = make(chan *pending, f.cfg.MaxQueue)
	reg := f.cfg.Obs
	f.met = frontendMetrics{
		queueWaitNs:   reg.Histogram("frontend.queue_wait_ns"),
		gatherNs:      reg.Histogram("frontend.gather_ns"),
		execNs:        reg.Histogram("frontend.exec_ns"),
		batchRequests: reg.Histogram("frontend.batch_requests"),
		batchItems:    reg.Histogram("frontend.batch_items"),
	}
	reg.RegisterProbe("frontend.queue_depth", func() int64 { return int64(len(f.queue)) })
	reg.RegisterProbeGroup(func(emit func(string, int64)) {
		s := f.Stats()
		emit("frontend.submitted", int64(s.Submitted))
		emit("frontend.completed", int64(s.Completed))
		emit("frontend.batches", int64(s.Batches))
		emit("frontend.batched_requests", int64(s.BatchedRequests))
		emit("frontend.batched_items", int64(s.BatchedItems))
		emit("frontend.max_batch_requests", int64(s.MaxBatchRequests))
		emit("frontend.shed_queue_full", int64(s.ShedQueueFull))
		emit("frontend.shed_budget", int64(s.ShedBudget))
		emit("frontend.shed_deadline", int64(s.ShedDeadline))
		emit("frontend.probes", int64(s.Probes))
		emit("frontend.exec_busy_ns", int64(s.ExecBusyNs))
	})
	f.wg.Add(1)
	go f.run()
	return f
}

// Close stops admission, drains queued requests through the executor,
// and waits for the dispatcher to exit.
func (f *Frontend) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.queue)
	f.mu.Unlock()
	f.wg.Wait()
}

// Submit runs one request through the frontend, blocking until it is
// served or shed. A shed returns an error wrapping ErrShed; the caller
// serves the degraded fallback instead.
func (f *Frontend) Submit(ctx trace.Context, req *core.RankingRequest) ([]float32, error) {
	// Reject malformed requests before batching: coalesced execution
	// fails as a unit, so a bad request must never share a batch with
	// healthy ones (the unfronted path fails only the sender; fronting
	// must not weaken that isolation).
	if err := f.exec.Validate(req); err != nil {
		return nil, err
	}
	now := time.Now()
	p := &pending{item: core.BatchItem{Ctx: ctx, Req: req}, enq: now, done: make(chan struct{})}
	if f.cfg.Budget > 0 {
		p.deadline = now.Add(f.cfg.Budget)
		// Early drop: if the estimated queue + service time already
		// exceeds the whole budget there is no point queueing — shed
		// before any work is spent. The backlog term is what makes this
		// bite under overload: a request that would fit an idle system
		// still sheds when seconds of queue stand ahead of it. One in
		// probeEvery over-budget requests is admitted as a probe instead.
		est := f.est.batch(int(req.Items))
		if queued := len(f.queue); queued > 0 {
			est += f.est.batch(queued * f.meanRequestItems(int(req.Items)))
		}
		if now.Add(est).After(p.deadline) {
			if f.probeTick.Add(1)%probeEvery != 0 {
				f.stats.shedBudget.Add(1)
				f.tracer.Finish(ctx.TraceID, time.Since(now), true)
				return nil, fmt.Errorf("%w: estimated service %v exceeds budget %v", ErrShed, est.Round(time.Microsecond), f.cfg.Budget)
			}
			p.probe = true
			f.stats.probes.Add(1)
		}
	}

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	select {
	case f.queue <- p:
		f.mu.Unlock()
	default:
		f.mu.Unlock()
		f.stats.shedQueueFull.Add(1)
		f.tracer.Finish(ctx.TraceID, time.Since(now), true)
		return nil, fmt.Errorf("%w: queue full (%d deep)", ErrShed, f.cfg.MaxQueue)
	}
	f.stats.submitted.Add(1)
	<-p.done
	// A non-nil error here is a late shed (dispatch-time deadline check)
	// or an execution failure; either way the request missed its answer.
	f.tracer.Finish(ctx.TraceID, time.Since(now), p.err != nil)
	return p.scores, p.err
}

// QueueDepth reports how many requests are waiting for a batch — the
// backpressure gauge operators (and tests) read.
func (f *Frontend) QueueDepth() int { return len(f.queue) }

// meanRequestItems estimates items per queued request from history,
// falling back to the current request's size before any batch ran.
func (f *Frontend) meanRequestItems(fallback int) int {
	reqs := f.stats.batchedRequests.Load()
	if reqs == 0 {
		return fallback
	}
	return int(f.stats.batchedItems.Load() / reqs)
}
