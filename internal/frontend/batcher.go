package frontend

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// admitter is an Executor that splits an execution in two, as
// *core.Engine does: Admit issues a group's sparse calls; the admission's
// Execute runs its dense work, or Release drops it.
type admitter interface {
	Admit(items []core.BatchItem) (*core.Admission, error)
}

// group is the requests the dispatcher took off the queue at one wake-up,
// admitted together; under an Executor that cannot admit, a batch is one
// group. live are the members not shed at dispatch.
type group struct {
	ps, live []*pending
	adm      *core.Admission
	err      error // the admission failed
}

// run is the dispatcher: it gathers queued requests into deadline-bounded
// batches and executes them. One goroutine owns the loop, so while the
// executor runs, new arrivals accumulate in the queue and the next batch
// is naturally larger — the classic adaptive-batching feedback.
//
// Each group is admitted as it is taken off the queue: its sparse round
// trip runs under the gather window, which delays only the dense work.
//
// The item cap is clamped immediately after every append: the moment an
// arrival crosses MaxBatchItems the batch ends, locally and explicitly,
// rather than by falling back to the loop-head recheck — and an opener
// already at the cap skips arming the gather window it could never use.
// (An overshoot of a single request is inherent: a dequeued request must
// be served with the batch that pulled it.) The gather timer is
// allocated once and Reset per batch rather than allocated per batch.
func (f *Frontend) run() {
	defer f.wg.Done()
	adm, _ := f.exec.(admitter)
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
		// In a co-served deployment, wait out the tenant's drain-gate
		// entitlement before anything else, the batch's sparse calls
		// included. The wait consumes the batch's SLA budget, so the
		// estimator observation includes it: admission then prices the
		// tenant's real, entitlement-limited service rate, and an
		// over-allocated backlog sheds instead of queueing unboundedly.
		var gateWait time.Duration
		if f.cfg.gate != nil {
			t0 := time.Now()
			f.cfg.gate.wait(f.cfg.tenant)
			gateWait = time.Since(t0)
			f.met.gateWaitNs.Observe(int64(gateWait))
		}
		gatherStart := time.Now()
		var groups []*group
		n, items := 0, 0
		full := func() bool { return n >= f.cfg.MaxBatchRequests || items >= f.cfg.MaxBatchItems }
		window := timer != nil && int(p.item.Req.Items) < f.cfg.MaxBatchItems
		if window {
			timer.Reset(f.cfg.BatchWait)
		}
		for p != nil {
			if adm != nil || groups == nil {
				groups = append(groups, &group{})
			}
			g := groups[len(groups)-1]
			for p != nil {
				g.ps = append(g.ps, p)
				n, items, p = n+1, items+int(p.item.Req.Items), nil
				if !full() {
					select {
					case p = <-f.queue: // nil once the queue is closed
					default:
					}
				}
			}
			if adm != nil {
				g.adm, g.err = adm.Admit(batchItems(g.ps))
			}
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
		f.dispatch(groups, items, gateWait)
	}
}

func batchItems(ps []*pending) []core.BatchItem {
	out := make([]core.BatchItem, len(ps))
	for i, p := range ps {
		out[i] = p.item
	}
	return out
}

// dispatch re-checks each gathered request's remaining budget against the
// estimated execution time (late admission control: queueing and the
// gather window have consumed budget since Submit), sheds the hopeless
// ones, and executes the groups side by side (group.execute).
func (f *Frontend) dispatch(groups []*group, items int, gateWait time.Duration) {
	now := time.Now()
	kept := 0
	for _, g := range groups {
		for _, p := range g.ps {
			f.met.queueWaitNs.Observe(int64(now.Sub(p.enq)))
			// Re-price the batch after every shed: a dropped large request
			// shrinks the execution the survivors actually face, and judging
			// them against the stale pre-shed estimate would cascade sheds
			// through requests that now comfortably fit.
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
			g.live = append(g.live, p)
		}
		kept += len(g.live)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, g := range groups[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.execute(f.exec)
		}()
	}
	groups[0].execute(f.exec)
	wg.Wait()
	if kept == 0 {
		return
	}
	execDur := time.Since(start)
	f.cfg.gate.charge(f.cfg.tenant, execDur)
	f.est.observe(gateWait+time.Since(now), items)

	f.stats.execBusyNs.Add(uint64(execDur))
	f.met.execNs.Observe(int64(execDur))
	f.met.batchRequests.Observe(int64(kept))
	f.met.batchItems.Observe(int64(items))
	f.stats.batches.Add(1)
	f.stats.batchedRequests.Add(uint64(kept))
	f.stats.batchedItems.Add(uint64(items))
	f.stats.maxBatch.max(uint64(kept))
	for _, g := range groups {
		for _, p := range g.live {
			if p.err == nil {
				f.stats.completed.Add(1)
			}
			close(p.done)
		}
	}
}

// execute runs the group for its live members and leaves each its scores
// or error — or releases an admission none of them is left to use.
func (g *group) execute(exec Executor) {
	// outs is parallel to ps: an admission executes every member, and the
	// ones shed at dispatch were answered already.
	ps, outs, err := g.live, [][]float32(nil), g.err
	switch {
	case err != nil:
	case len(ps) == 0:
		if g.adm != nil {
			g.adm.Release()
		}
	case g.adm != nil:
		ps = g.ps
		outs, err = g.adm.Execute()
	default:
		outs, err = exec.ExecuteBatch(batchItems(ps))
	}
	for i, p := range ps {
		switch {
		case p.err != nil: // shed at dispatch
		case err != nil:
			p.err = err
		default:
			p.scores = outs[i]
		}
	}
}
