package frontend

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Tests of early admission: under a real engine, the dispatcher admits a
// group as it takes it off the queue and executes it at once, so the
// gather window delays no answer.

// admitFixture is a real distributed engine over in-process sparse shards
// whose calls the test sees and can hold.
type admitFixture struct {
	eng *core.Engine
	reg *obs.Registry
	// calls receives each sparse.run as it is issued, buffered past the
	// calls any test here issues so that issuing never blocks on it; hold,
	// until it is closed, keeps every call unanswered.
	calls chan issued
	hold  chan struct{}
	reqs  []*core.RankingRequest
	want  [][]float32 // the singular engine's scores of reqs
}

// issued is one sparse.run: the shard it went to and the trace of the
// execution that issued it (its first request's).
type issued struct {
	svc   string
	trace uint64
}

// shardCaller answers one shard's calls in process, on a goroutine of the
// call's own once the fixture's hold is closed — a call outstanding on a
// real connection.
type shardCaller struct {
	fx  *admitFixture
	svc string
	h   rpc.Handler
}

func (c *shardCaller) Go(req *rpc.Request) *rpc.Call {
	c.fx.calls <- issued{c.svc, req.TraceID}
	call := &rpc.Call{Req: req, Done: make(chan struct{})}
	go func() {
		<-c.fx.hold
		body, err := c.h.Handle(trace.Context{TraceID: req.TraceID, CallID: req.CallID}, req.Method, req.Body)
		if err != nil {
			call.Err = err
		} else {
			call.Resp = &rpc.Response{CallID: req.CallID, Body: body}
		}
		close(call.Done)
	}()
	return call
}

func (c *shardCaller) Close() error { return nil }

func newAdmitFixture(t *testing.T, n int) *admitFixture {
	t.Helper()
	cfg := tinyConfig()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.Recorder, plan.NumShards)
	for i := range recs {
		recs[i] = trace.NewRecorder(core.ServiceName(i+1), 1<<10)
	}
	shards, err := core.MaterializeShardsTiered(m, plan, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx := &admitFixture{reg: obs.NewRegistry(), calls: make(chan issued, 256), hold: make(chan struct{})}
	callers := make(map[string]rpc.Caller)
	for _, sh := range shards {
		callers[sh.ShardName] = &shardCaller{fx: fx, svc: sh.ShardName, h: sh}
	}
	fx.eng, err = core.NewEngine(m, plan, core.EngineConfig{
		Recorder:  trace.NewRecorder("main", 1<<14),
		Obs:       fx.reg,
		ClientFor: func(svc string) (rpc.Caller, error) { return callers[svc], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	control, err := core.NewEngine(m, sharding.Singular(&cfg), core.EngineConfig{Recorder: trace.NewRecorder("control", 1)})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(cfg, 3)
	for i := 0; i < n; i++ {
		req := core.FromWorkload(gen.Next())
		want, err := control.Execute(trace.Context{TraceID: uint64(i + 1)}, req)
		if err != nil {
			t.Fatal(err)
		}
		fx.reqs, fx.want = append(fx.reqs, req), append(fx.want, want)
	}
	return fx
}

type result struct {
	scores []float32
	err    error
}

// submit sends request i through f on a goroutine of its own.
func (fx *admitFixture) submit(f *Frontend, i int) <-chan result {
	ch := make(chan result, 1)
	go func() {
		scores, err := f.Submit(trace.Context{TraceID: uint64(i + 1)}, fx.reqs[i])
		ch <- result{scores, err}
	}()
	return ch
}

// called waits for the next sparse.run to be issued.
func (fx *admitFixture) called(t *testing.T) issued {
	t.Helper()
	select {
	case c := <-fx.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("no sparse call issued")
		return issued{}
	}
}

// scored requires request i's result to be the singular engine's scores,
// bit for bit.
func (fx *admitFixture) scored(t *testing.T, i int, r result) {
	t.Helper()
	if r.err != nil {
		t.Fatalf("request %d: %v", i, r.err)
	}
	if len(r.scores) != len(fx.want[i]) {
		t.Fatalf("request %d: %d scores, want %d", i, len(r.scores), len(fx.want[i]))
	}
	for j := range r.scores {
		if math.Float32bits(r.scores[j]) != math.Float32bits(fx.want[i][j]) {
			t.Fatalf("request %d item %d: %v, singular engine %v", i, j, r.scores[j], fx.want[i][j])
		}
	}
}

func (fx *admitFixture) counter(name string) int64 { return fx.reg.Snapshot().Counter(name) }

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestSparseCallsIssueInsideGatherWindow: with a 1 s gather window, a
// request's sparse.run is issued while the window is still open — no
// batch dispatched, no gather finished — and its scores arrive before the
// window closes. A second arrival is a group of its own and is answered
// inside the window too. Close, which ends the window, books both groups
// as one batch; each request scores as the singular engine does.
func TestSparseCallsIssueInsideGatherWindow(t *testing.T) {
	fx := newAdmitFixture(t, 2)
	close(fx.hold)
	f := New(fx.eng, Config{BatchWait: time.Second, Obs: fx.reg})
	inWindow := func(what string) {
		t.Helper()
		if gathers, _ := fx.reg.Snapshot().Hist("frontend.gather_ns"); f.Stats().Batches != 0 || gathers.Count != 0 {
			t.Fatalf("%s after the gather window closed (batches %d, gathers %d)", what, f.Stats().Batches, gathers.Count)
		}
	}
	first := fx.submit(f, 0)
	fx.called(t)
	inWindow("sparse.run issued")
	fx.scored(t, 0, <-first)
	inWindow("request 0 answered")
	second := fx.submit(f, 1)
	// Request 0's other calls may come first; wait for request 1's.
	for c := fx.called(t); c.trace != 2; c = fx.called(t) {
	}
	fx.scored(t, 1, <-second)
	inWindow("request 1 answered")
	f.Close()
	if st := f.Stats(); st.Batches != 1 || st.BatchedRequests != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want both requests in one batch", st)
	}
	if n := fx.counter("engine.requests"); n != 2 {
		t.Errorf("%d engine executions, want one per group (2)", n)
	}
}

// TestWindowNotPriced: every executor answers inside the gather window,
// so Submit does not price the window in — under a one-second window and
// a 500 ms budget the request is admitted on its own estimate and
// answered before the window closes, over the engine and over a plain
// ExecuteBatch alike.
func TestWindowNotPriced(t *testing.T) {
	fx := newAdmitFixture(t, 1)
	close(fx.hold)
	req := fx.reqs[0]
	byID := make([]float32, req.Items) // fakeExec scores each item with its request's ID
	for i := range byID {
		byID[i] = float32(req.ID)
	}
	for _, tc := range []struct {
		name string
		exec Executor
		want []float32
	}{
		{"engine", fx.eng, fx.want[0]},
		{"ExecuteBatch", &fakeExec{}, byID},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{BatchWait: time.Second, Budget: 500 * time.Millisecond}
			f := New(tc.exec, cfg)
			defer f.Close()
			start := time.Now()
			r := <-fx.submit(f, 0)
			if took := time.Since(start); took >= cfg.Budget {
				t.Errorf("Submit took %v, want under the %v budget", took, cfg.Budget)
			}
			if st := f.Stats(); st.Batches != 0 || st.ShedBudget != 0 || st.Probes != 0 {
				t.Errorf("stats = %+v, want the request admitted on its own estimate and answered inside the window", st)
			}
			if r.err != nil || len(r.scores) != len(tc.want) {
				t.Fatalf("scores %v, err %v; want %v", r.scores, r.err, tc.want)
			}
			for i := range tc.want {
				if math.Float32bits(r.scores[i]) != math.Float32bits(tc.want[i]) {
					t.Fatalf("item %d: %v, want %v", i, r.scores[i], tc.want[i])
				}
			}
		})
	}
}

// TestBacklogIsOneGroup: requests queued while the dispatcher is busy are
// one group when it wakes — one execution and at most one sparse.run per
// shard for all of them, as coalescing was without early admission.
func TestBacklogIsOneGroup(t *testing.T) {
	fx := newAdmitFixture(t, 4)
	f := New(fx.eng, Config{})
	defer f.Close()
	// Request 0's calls are held, so the dispatcher sits in its execution
	// while the rest queue up behind it.
	first := fx.submit(f, 0)
	perShard := map[string]int{fx.called(t).svc: 1}
	rest := []<-chan result{fx.submit(f, 1), fx.submit(f, 2), fx.submit(f, 3)}
	for f.QueueDepth() < len(rest) {
		runtime.Gosched()
	}
	close(fx.hold)
	fx.scored(t, 0, <-first)
	for i, ch := range rest {
		fx.scored(t, i+1, <-ch)
	}
	if n := fx.counter("engine.requests"); n != 2 {
		t.Errorf("%d engine executions, want 2: the backlog must be one group", n)
	}
	for len(fx.calls) > 0 {
		perShard[(<-fx.calls).svc]++
	}
	for svc, n := range perShard {
		if n > 2 {
			t.Errorf("%s got %d calls: one for request 0 and one for the backlog at most", svc, n)
		}
	}
	f.Close() // a batch is booked once its last member is answered
	if st := f.Stats(); st.Batches != 2 || st.MaxBatchRequests != 3 {
		t.Errorf("stats = %+v, want batches of 1 and 3", st)
	}
}

// TestShedRequestIssuesNoCall: a request whose deadline passes in the
// queue sheds when its group is taken off it, before admission — no
// sparse call, no engine execution — and no goroutine outlives the
// frontend.
func TestShedRequestIssuesNoCall(t *testing.T) {
	base := runtime.NumGoroutine()
	fx := newAdmitFixture(t, 1)
	close(fx.hold)
	// Nothing is learned yet, so Submit's estimate is zero and the request
	// queues; its nanosecond budget is gone by the time it is dequeued.
	f := New(fx.eng, Config{BatchWait: time.Hour, Budget: time.Nanosecond, Obs: fx.reg})
	if r := <-fx.submit(f, 0); !errors.Is(r.err, ErrShed) {
		t.Fatalf("request past its deadline: %v, want a shed", r.err)
	}
	f.Close()
	if calls, execs := fx.counter("engine.rpc.calls"), fx.counter("engine.requests"); calls != 0 || execs != 0 {
		t.Errorf("%d sparse calls and %d engine executions for a shed request", calls, execs)
	}
	if st := f.Stats(); st.ShedDeadline != 1 || st.Batches != 0 || st.Completed != 0 {
		t.Errorf("stats = %+v", st)
	}
	settle(t, base)
}
