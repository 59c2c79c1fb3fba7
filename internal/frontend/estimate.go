package frontend

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// estimator prices a request by its item count from the median per-item
// cost of recent executions. The median (not a mean or EWMA) matters: a
// single cold-start or GC-stretched outlier must not lock the estimate
// above the SLA budget — with a median it washes out after a few normal
// executions, and the admission probes guarantee those executions
// happen. Until the first observation every estimate is zero: the
// frontend admits optimistically and learns from real executions.
type estimator struct {
	mu      sync.Mutex
	samples [estimatorWindow]float64 // per-item seconds, ring buffer
	n       int                      // filled entries
	idx     int                      // next write position
}

// estimatorWindow is how many recent executions the median spans.
const estimatorWindow = 9

// observe folds one execution (total duration, items coalesced) in.
func (e *estimator) observe(d time.Duration, items int) {
	if items <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples[e.idx] = d.Seconds() / float64(items)
	e.idx = (e.idx + 1) % estimatorWindow
	if e.n < estimatorWindow {
		e.n++
	}
}

// perItem returns the median per-item cost in seconds (0 before any
// observation).
func (e *estimator) perItem() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 {
		return 0
	}
	tmp := make([]float64, e.n)
	copy(tmp, e.samples[:e.n])
	sort.Float64s(tmp)
	return tmp[e.n/2]
}

// batch estimates executing a batch of n total items.
func (e *estimator) batch(n int) time.Duration {
	return time.Duration(e.perItem() * float64(n) * float64(time.Second))
}

// counters are the frontend's monotonic statistics.
type counters struct {
	submitted       atomic.Uint64
	completed       atomic.Uint64
	batches         atomic.Uint64
	batchedRequests atomic.Uint64
	batchedItems    atomic.Uint64
	shedQueueFull   atomic.Uint64
	shedBudget      atomic.Uint64
	shedDeadline    atomic.Uint64
	probes          atomic.Uint64
	execBusyNs      atomic.Uint64
	maxBatch        atomicMax
}

// atomicMax is a CAS-maintained running maximum.
type atomicMax struct{ v atomic.Uint64 }

func (m *atomicMax) max(x uint64) {
	for {
		cur := m.v.Load()
		if x <= cur || m.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Stats is a snapshot of the frontend's counters.
type Stats struct {
	// Submitted requests admitted to the queue; Completed ones served
	// with real scores.
	Submitted, Completed uint64
	// Batches executed, the requests and items coalesced into them, and
	// the largest coalesced request count observed. A batch is counted
	// once its last group has answered, so these can trail Completed.
	Batches, BatchedRequests, BatchedItems, MaxBatchRequests uint64
	// Sheds by cause: queue full at admission, budget short at admission,
	// budget exhausted at dispatch.
	ShedQueueFull, ShedBudget, ShedDeadline uint64
	// Probes are over-budget requests admitted anyway to keep the
	// service-time estimator learning.
	Probes uint64
	// ExecBusyNs is cumulative executor busy time: each batch's wall span,
	// from its first execution's start (an admission) to its last scores.
	// The frontend.exec_busy_ns probe exports it, and the benchmark's
	// frontend.exec_busy_pct differences it over a run's wall time.
	ExecBusyNs uint64
}

// Sheds is the total load shed across causes.
func (s Stats) Sheds() uint64 { return s.ShedQueueFull + s.ShedBudget + s.ShedDeadline }

// RequestsPerBatch is the mean coalescing factor.
func (s Stats) RequestsPerBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchedRequests) / float64(s.Batches)
}

// Stats snapshots the counters.
func (f *Frontend) Stats() Stats {
	return Stats{
		Submitted:        f.stats.submitted.Load(),
		Completed:        f.stats.completed.Load(),
		Batches:          f.stats.batches.Load(),
		BatchedRequests:  f.stats.batchedRequests.Load(),
		BatchedItems:     f.stats.batchedItems.Load(),
		MaxBatchRequests: f.stats.maxBatch.v.Load(),
		ShedQueueFull:    f.stats.shedQueueFull.Load(),
		ShedBudget:       f.stats.shedBudget.Load(),
		ShedDeadline:     f.stats.shedDeadline.Load(),
		Probes:           f.stats.probes.Load(),
		ExecBusyNs:       f.stats.execBusyNs.Load(),
	}
}
