package frontend

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fakeExec is a controllable executor: optional gate to hold batches,
// optional entry signal (fires when a batch reaches the executor, before
// the gate), optional fixed delay, and per-request scores derived from
// the request ID so demux mistakes are visible.
type fakeExec struct {
	gate    chan struct{}
	entered chan struct{}
	delay   time.Duration

	mu      sync.Mutex
	batches [][]core.BatchItem
}

func (f *fakeExec) Validate(req *core.RankingRequest) error {
	if req.Items <= 0 {
		return errors.New("fake: no items")
	}
	return nil
}

func (f *fakeExec) ExecuteBatch(items []core.BatchItem) ([][]float32, error) {
	if f.entered != nil {
		select {
		case f.entered <- struct{}{}:
		default:
		}
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.batches = append(f.batches, items)
	f.mu.Unlock()
	out := make([][]float32, len(items))
	for i, it := range items {
		scores := make([]float32, it.Req.Items)
		for j := range scores {
			scores[j] = float32(it.Req.ID)
		}
		out[i] = scores
	}
	return out, nil
}

func (f *fakeExec) numBatches() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.batches)
}

func fakeReq(id uint64) *core.RankingRequest {
	return &core.RankingRequest{ID: id, Items: 1}
}

func tinyConfig() model.Config {
	cfg := model.DRM2()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 32
		cfg.Tables[i].PoolingFactor = 2
	}
	cfg.MeanItems = 4
	cfg.DefaultBatch = 8
	return cfg
}

func TestCoalescesUnderConcurrency(t *testing.T) {
	// N concurrent submits through a windowed frontend must execute in
	// fewer engine batches than requests, with each request's scores
	// routed back to it.
	exec := &fakeExec{delay: time.Millisecond}
	f := New(exec, Config{BatchWait: 5 * time.Millisecond, MaxBatchRequests: 8})

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scores, err := f.Submit(trace.Context{TraceID: uint64(i + 1)}, fakeReq(uint64(i+1)))
			if err != nil {
				errs[i] = err
				return
			}
			if len(scores) != 1 || scores[i%1] != float32(i+1) {
				t.Errorf("request %d got scores %v", i+1, scores)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i+1, err)
		}
	}
	f.Close() // a batch is booked once its last member is answered
	st := f.Stats()
	if exec.numBatches() >= n {
		t.Errorf("%d batches for %d requests: no coalescing", exec.numBatches(), n)
	}
	if st.BatchedRequests != n || st.Completed != n {
		t.Errorf("stats = %+v", st)
	}
	if st.RequestsPerBatch() <= 1 {
		t.Errorf("requests/batch = %v, want > 1", st.RequestsPerBatch())
	}
}

func TestEndToEndMatchesUnbatchedEngine(t *testing.T) {
	// Acceptance check: concurrent requests through the frontend score
	// identically to the unbatched engine path.
	cfg := tinyConfig()
	m := model.Build(cfg)
	rec := trace.NewRecorder("main", 1<<16)
	eng, err := core.NewEngine(m, sharding.Singular(&cfg), core.EngineConfig{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 11)
	const n = 12
	reqs := make([]*core.RankingRequest, n)
	want := make([][]float32, n)
	for i := range reqs {
		reqs[i] = core.FromWorkload(gen.Next())
		if want[i], err = eng.Execute(trace.Context{TraceID: uint64(1000 + i)}, reqs[i]); err != nil {
			t.Fatal(err)
		}
	}

	f := New(eng, Config{BatchWait: 10 * time.Millisecond, MaxBatchRequests: 6})
	defer f.Close()
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := f.Submit(trace.Context{TraceID: uint64(i + 1)}, reqs[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Errorf("request %d item %d: %v != %v", i, j, got[j], want[i][j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := f.Stats(); st.Batches >= n {
		t.Errorf("%d batches for %d requests: no coalescing", st.Batches, n)
	}
}

func TestQueueFullSheds(t *testing.T) {
	exec := &fakeExec{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	f := New(exec, Config{MaxQueue: 2})
	// LIFO defers: the gate must open before Close waits on the
	// dispatcher, which is blocked on it.
	defer f.Close()
	defer close(exec.gate)

	// First submit occupies the dispatcher; wait until its batch has
	// actually reached the executor (and is blocked on the gate) before
	// filling the queue, so a scheduling hiccup cannot let the batcher
	// gather the fillers into the first batch.
	results := make(chan error, 3)
	submit := func(i int) {
		go func() {
			_, err := f.Submit(trace.Context{TraceID: uint64(i + 1)}, fakeReq(uint64(i+1)))
			results <- err
		}()
	}
	submit(0)
	select {
	case <-exec.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher never reached the executor")
	}
	submit(1)
	submit(2)
	// Wait until the queue is saturated, then overflow it.
	deadline := time.Now().Add(5 * time.Second)
	for f.QueueDepth() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if f.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2", f.QueueDepth())
	}
	_, err := f.Submit(trace.Context{TraceID: 99}, fakeReq(99))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overflow error = %v, want ErrShed", err)
	}
	if !strings.HasPrefix(err.Error(), "shed:") {
		t.Errorf("shed error %q must carry the shed: wire prefix", err)
	}
	if st := f.Stats(); st.ShedQueueFull != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBudgetShedsAtAdmission(t *testing.T) {
	// Once the estimator has learned a service time far beyond the
	// budget, later arrivals shed before queueing.
	exec := &fakeExec{delay: 30 * time.Millisecond}
	f := New(exec, Config{Budget: 5 * time.Millisecond})
	defer f.Close()

	if _, err := f.Submit(trace.Context{TraceID: 1}, fakeReq(1)); err != nil {
		t.Fatalf("first request (optimistic admission): %v", err)
	}
	_, err := f.Submit(trace.Context{TraceID: 2}, fakeReq(2))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("post-learning submit error = %v, want ErrShed", err)
	}
	if st := f.Stats(); st.ShedBudget != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeadlineShedsAtDispatch(t *testing.T) {
	// A request that exhausts its whole budget waiting in the queue is
	// dropped at dispatch without touching the executor.
	exec := &fakeExec{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	f := New(exec, Config{Budget: 10 * time.Millisecond})
	defer f.Close()

	first := make(chan error, 1)
	go func() {
		_, err := f.Submit(trace.Context{TraceID: 1}, fakeReq(1))
		first <- err
	}()
	// Wait for the dispatcher to pick up request 1 and block on the gate,
	// then queue request 2 behind it and let its budget lapse.
	<-exec.entered
	second := make(chan error, 1)
	go func() {
		_, err := f.Submit(trace.Context{TraceID: 2}, fakeReq(2))
		second <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(exec.gate)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := <-second; !errors.Is(err, ErrShed) {
		t.Fatalf("stale request error = %v, want ErrShed", err)
	}
	if st := f.Stats(); st.ShedDeadline != 1 {
		t.Errorf("stats = %+v", st)
	}
	if exec.numBatches() != 1 {
		t.Errorf("executor ran %d batches; the stale request must not reach it", exec.numBatches())
	}
}

func TestMalformedRequestRejectedAtAdmission(t *testing.T) {
	// A bad request must fail alone at Submit — never reach the executor
	// where it would fail the whole coalesced batch.
	exec := &fakeExec{}
	f := New(exec, Config{})
	defer f.Close()
	_, err := f.Submit(trace.Context{TraceID: 1}, &core.RankingRequest{ID: 1, Items: 0})
	if err == nil || errors.Is(err, ErrShed) {
		t.Fatalf("validation error = %v, want a non-shed hard error", err)
	}
	if exec.numBatches() != 0 {
		t.Error("malformed request reached the executor")
	}
	if _, err := f.Submit(trace.Context{TraceID: 2}, fakeReq(2)); err != nil {
		t.Fatalf("healthy request after rejection: %v", err)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	f := New(&fakeExec{}, Config{})
	f.Close()
	if _, err := f.Submit(trace.Context{TraceID: 1}, fakeReq(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v", err)
	}
	f.Close() // idempotent
}

func TestCloseDrainsQueue(t *testing.T) {
	exec := &fakeExec{delay: 2 * time.Millisecond}
	f := New(exec, Config{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = f.Submit(trace.Context{TraceID: uint64(i + 1)}, fakeReq(uint64(i+1)))
		}(i)
	}
	// Give the submits a moment to enqueue, then close: queued requests
	// must still be served, not dropped.
	time.Sleep(5 * time.Millisecond)
	f.Close()
	wg.Wait()
	for i, err := range errs {
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("request %d: %v", i, err)
		}
	}
}
