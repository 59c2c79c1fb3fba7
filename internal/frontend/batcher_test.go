package frontend

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// push enqueues a request directly on the dispatcher queue (bypassing
// Submit) so tests control arrival order exactly.
func push(f *Frontend, id uint64, items int32) *pending {
	p := &pending{
		item: core.BatchItem{Ctx: trace.Context{TraceID: id}, Req: &core.RankingRequest{ID: id, Items: items}},
		done: make(chan struct{}),
	}
	f.queue <- p
	return p
}

func waitDone(t *testing.T, ps ...*pending) {
	t.Helper()
	for _, p := range ps {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			t.Fatal("request not served")
		}
	}
}

func waitEntered(t *testing.T, exec *fakeExec) {
	t.Helper()
	select {
	case <-exec.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("executor never entered")
	}
}

// TestGatherStopsAtItemCapCrossing is the item-cap clamp regression, in
// both gather modes (windowed and pure drain): the arrival that crosses
// maxBatchItems must end the batch — requests queued behind it belong
// to the next execution, and the overshoot is bounded to that single
// arrival.
func TestGatherStopsAtItemCapCrossing(t *testing.T) {
	for _, wait := range []time.Duration{0, 100 * time.Millisecond} {
		t.Run(fmt.Sprintf("wait=%v", wait), func(t *testing.T) {
			testGatherClamp(t, wait)
		})
	}
}

func testGatherClamp(t *testing.T, wait time.Duration) {
	exec := &fakeExec{gate: make(chan struct{}, 8), entered: make(chan struct{}, 1)}
	f := New(exec, Config{BatchWait: wait, MaxBatchRequests: 100, MaxQueue: 64})
	defer f.Close()
	defer close(exec.gate)

	// Batch 1: a lone opener at the cap, so it opens no gather window and
	// the dispatcher waits on its execution, held at the executor, while
	// the real test traffic queues up in order behind it. (A smaller
	// opener's window would take each push as it lands, possibly as a
	// group of its own.)
	a := push(f, 1, maxBatchItems)
	waitEntered(t, exec)
	b := push(f, 2, maxBatchItems/4)
	c := push(f, 3, maxBatchItems) // crosses the cap on append
	d := push(f, 4, 1)
	e := push(f, 5, 1)
	exec.gate <- struct{}{} // release batch 1
	waitDone(t, a)

	waitEntered(t, exec)
	exec.gate <- struct{}{} // release batch 2
	waitDone(t, b, c)
	waitEntered(t, exec)
	exec.gate <- struct{}{} // release batch 3
	waitDone(t, d, e)

	exec.mu.Lock()
	defer exec.mu.Unlock()
	if len(exec.batches) != 3 {
		t.Fatalf("dispatched %d batches, want 3", len(exec.batches))
	}
	ids := func(items []core.BatchItem) (out []uint64) {
		for _, it := range items {
			out = append(out, it.Req.ID)
		}
		return
	}
	if got := ids(exec.batches[1]); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("batch 2 = %v, want [2 3]: gathering must stop when request 3 crosses the cap", got)
	}
	if got := ids(exec.batches[2]); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("batch 3 = %v, want [4 5]", got)
	}
}

// TestOversizedOpenerSkipsGatherWindow: a first request already at the
// cap must dispatch immediately instead of idling out the full batch
// window it cannot use.
func TestOversizedOpenerSkipsGatherWindow(t *testing.T) {
	exec := &fakeExec{entered: make(chan struct{}, 1)}
	f := New(exec, Config{BatchWait: 5 * time.Second, MaxQueue: 64})
	defer f.Close()
	p := push(f, 1, maxBatchItems+1)
	select {
	case <-exec.entered:
	case <-time.After(time.Second):
		t.Fatal("oversized opener waited on the gather window")
	}
	waitDone(t, p)
}
