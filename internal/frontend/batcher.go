package frontend

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// admitter is an Executor that splits an execution in two, as
// *core.Engine does: Admit issues a group's sparse calls and the
// admission's Execute runs its dense work.
type admitter interface {
	Admit(items []core.BatchItem) (*core.Admission, error)
}

// batch is what the dispatcher opens at one wake-up: how many requests it
// kept, over one or more groups, and the wall span their executions
// covered.
type batch struct {
	n     int // requests kept
	items int
	first time.Time // the first execution's start
	span  atomicMax // ns from first to the last scores
	wg    sync.WaitGroup
}

// run is the dispatcher: it gathers queued requests into deadline-bounded
// batches and executes them. One goroutine owns the loop, so while a
// batch executes, new arrivals accumulate in the queue and the next batch
// is naturally larger — the classic adaptive-batching feedback.
//
// Each group — the requests taken off the queue at one wake-up — is
// re-checked and set executing the moment it is taken, and its members
// are answered as soon as their scores exist: the window only bounds how
// long a batch keeps opening groups.
//
// The item cap is clamped immediately after every append: the moment an
// arrival crosses maxBatchItems the batch ends, locally and explicitly,
// rather than by falling back to the loop-head recheck — and an opener
// already at the cap skips arming the gather window it could never use.
// (An overshoot of a single request is inherent: a dequeued request must
// be served with the batch that pulled it.) The gather timer is
// allocated once and Reset per batch rather than allocated per batch.
func (f *Frontend) run() {
	defer f.wg.Done()
	var timer *time.Timer
	if f.cfg.BatchWait > 0 {
		timer = time.NewTimer(f.cfg.BatchWait)
		timer.Stop() // armed per batch via Reset
	}
	for {
		p, ok := <-f.queue
		if !ok {
			return
		}
		b := &batch{}
		gatherStart := time.Now()
		n, items := 0, 0
		full := func() bool { return n >= f.cfg.MaxBatchRequests || items >= maxBatchItems }
		window := timer != nil && int(p.item.Req.Items) < maxBatchItems
		if window {
			timer.Reset(f.cfg.BatchWait)
		}
		for p != nil {
			var g []*pending
			for p != nil {
				g = append(g, p)
				n, items, p = n+1, items+int(p.item.Req.Items), nil
				if !full() {
					select {
					case p = <-f.queue: // nil once the queue is closed
					default:
					}
				}
			}
			f.start(b, g)
			if !window || full() {
				break
			}
			select {
			case p = <-f.queue:
			case <-timer.C:
			}
		}
		if window {
			// Go 1.23+ timers: Stop discards any pending fire, so the next
			// Reset starts the window cleanly without draining the channel.
			timer.Stop()
		}
		f.met.gatherNs.Observe(int64(time.Since(gatherStart)))
		b.wg.Wait()
		f.record(b)
	}
}

func batchItems(ps []*pending) []core.BatchItem {
	out := make([]core.BatchItem, len(ps))
	for i, p := range ps {
		out[i] = p.item
	}
	return out
}

// shed re-checks each request's remaining budget against the estimated
// execution (late admission control: queueing has consumed budget since
// Submit), answers the hopeless ones with a shed, and returns the rest and
// their items.
func (f *Frontend) shed(ps []*pending) ([]*pending, int) {
	now := time.Now()
	items := 0
	for _, p := range ps {
		items += int(p.item.Req.Items)
	}
	live := ps[:0]
	for _, p := range ps {
		f.met.queueWaitNs.Observe(int64(now.Sub(p.enq)))
		// Re-price after every shed: a dropped large request shrinks the
		// execution the survivors actually face, and judging them against
		// the stale pre-shed estimate would cascade sheds through requests
		// that now comfortably fit.
		est := f.est.batch(items)
		// Probes ignore the (possibly stale) estimate: they exist to
		// re-measure it. A hard-expired deadline still sheds them.
		cutoff := now.Add(est)
		if p.probe {
			cutoff = now
		}
		if !p.deadline.IsZero() && cutoff.After(p.deadline) {
			f.stats.shedDeadline.Add(1)
			p.err = fmt.Errorf("%w: %v of budget left, execution needs ~%v",
				ErrShed, time.Until(p.deadline).Round(time.Microsecond), est.Round(time.Microsecond))
			close(p.done)
			items -= int(p.item.Req.Items)
			continue
		}
		live = append(live, p)
	}
	return live, items
}

// start sheds a group's hopeless requests and executes the rest on a
// goroutine of their own, which answers them as soon as their scores
// exist. An executor that can Admit admits them first, on the dispatcher,
// so groups coalesce in arrival order.
func (f *Frontend) start(b *batch, g []*pending) {
	live, items := f.shed(g)
	if len(live) == 0 {
		return
	}
	t0 := time.Now()
	if b.n == 0 {
		b.first = t0
	}
	b.n, b.items = b.n+len(live), b.items+items
	execute := func() ([][]float32, error) { return f.exec.ExecuteBatch(batchItems(live)) }
	if f.adm != nil {
		a, err := f.adm.Admit(batchItems(live))
		execute = func() ([][]float32, error) {
			if err != nil {
				return nil, err
			}
			return a.Execute()
		}
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		outs, err := execute()
		end := time.Now()
		b.span.max(uint64(end.Sub(b.first)))
		f.est.observe(end.Sub(t0), items)
		f.answer(live, outs, err)
	}()
}

// record books a finished batch: its wall span as executor busy time,
// and its size.
func (f *Frontend) record(b *batch) {
	if b.n == 0 {
		return
	}
	span := time.Duration(b.span.v.Load())
	f.stats.execBusyNs.Add(uint64(span))
	f.met.execNs.Observe(int64(span))
	f.met.batchRequests.Observe(int64(b.n))
	f.met.batchItems.Observe(int64(b.items))
	f.stats.batches.Add(1)
	f.stats.batchedRequests.Add(uint64(b.n))
	f.stats.batchedItems.Add(uint64(b.items))
	f.stats.maxBatch.max(uint64(b.n))
}

// answer leaves each request its scores (outs is parallel to ps) or the
// execution's error, and releases its Submit.
func (f *Frontend) answer(ps []*pending, outs [][]float32, err error) {
	for i, p := range ps {
		if p.err = err; err == nil {
			p.scores = outs[i]
			f.stats.completed.Add(1)
		}
		close(p.done)
	}
}
