package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Span names: one per layer boundary the shims sit on, outermost first.
const (
	spanClient     = "client.request"    // the generator, send to response
	spanMainHandle = "rpc.main.handle"   // main server's rpc.Handler
	spanExec       = "frontend.exec"     // frontend.Executor under the frontend
	spanSparseCall = "rpc.sparse.call"   // engine's rpc.Caller, issue to done
	spanShard      = "core.shard.handle" // sparse server's rpc.Handler
)

// span is one timed call into a layer. Spans of one request share Trace;
// Parent names the span that caused this one. A frontend.exec span serves
// every request in Members and is filed under the first of them, as are
// the sparse calls it makes.
type span struct {
	Trace   uint64   `json:"trace"`
	Name    string   `json:"name"`
	Parent  string   `json:"parent,omitempty"`
	Start   int64    `json:"start_ns"`
	End     int64    `json:"end_ns"`
	Call    uint64   `json:"call,omitempty"`
	Shard   int      `json:"shard,omitempty"`
	Members []uint64 `json:"members,omitempty"`
	ReqB    int      `json:"req_bytes,omitempty"`
	RespB   int      `json:"resp_bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// capturedCall is one sparse.run exchange kept whole so the leaf replays
// run on the inputs the deployment really saw.
type capturedCall struct {
	req, resp []byte
}

// captureExecs bounds how many executions keep their sparse bodies.
const captureExecs = 48

// capturedExec is the sparse exchanges of one engine execution and how
// many requests it served.
type capturedExec struct {
	calls  []capturedCall
	served int
}

// tracer collects spans in memory; nothing is written until the run ends.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	// captured keeps the first captureExecs executions by the trace id
	// their sparse calls carry; leads lists those ids in arrival order.
	captured map[uint64]*capturedExec
	leads    []uint64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), captured: make(map[uint64]*capturedExec)}
}

// reset forgets everything recorded so far (the warm-up).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.leads = nil, nil
	t.captured = make(map[uint64]*capturedExec)
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) capture(lead uint64, req, resp []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.captured[lead]
	if e == nil {
		if len(t.leads) >= captureExecs {
			return
		}
		e = &capturedExec{served: 1}
		t.captured[lead] = e
		t.leads = append(t.leads, lead)
	}
	e.calls = append(e.calls, capturedCall{req: req, resp: resp})
}

// served notes how many requests the execution filed under lead serves.
func (t *tracer) served(lead uint64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.captured[lead]; e != nil {
		e.served = n
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// handlerShim records a span around an rpc.Handler: the main server's
// (shard 0) or one sparse server's. Only the serving methods are
// recorded; the publisher's control-plane calls pass through untimed.
type handlerShim struct {
	t     *tracer
	next  rpc.Handler
	shard int // 0 for the main server, else the 1-based sparse shard
}

func (h *handlerShim) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	if method != core.RankMethod && method != core.MethodSparseRun {
		return h.next.Handle(ctx, method, body)
	}
	s := span{Trace: ctx.TraceID, Call: ctx.CallID, Shard: h.shard, ReqB: len(body), Start: h.t.now()}
	out, err := h.next.Handle(ctx, method, body)
	s.End, s.RespB = h.t.now(), len(out)
	if h.shard == 0 {
		s.Name, s.Parent = spanMainHandle, spanClient
	} else {
		s.Name, s.Parent = spanShard, spanSparseCall
		if err == nil {
			h.t.capture(ctx.TraceID, body, out)
		}
	}
	h.t.add(s)
	return out, err
}

// callerShim records a span around each sparse call the engine issues,
// from Go to the close of Done.
type callerShim struct {
	t    *tracer
	next rpc.Caller
	// parent is the span the engine runs under in this deployment.
	parent string
	wg     sync.WaitGroup
}

func (c *callerShim) Go(req *rpc.Request) *rpc.Call {
	s := span{Trace: req.TraceID, Call: req.CallID, Name: spanSparseCall, Parent: c.parent, ReqB: len(req.Body), Start: c.t.now()}
	call := c.next.Go(req)
	c.wg.Add(1)
	// Ends when the call completes; closing the client fails every
	// pending call, so Close below cannot wait forever.
	go func() {
		defer c.wg.Done()
		<-call.Done
		s.End = c.t.now()
		if call.Resp != nil {
			s.RespB = len(call.Resp.Body)
		}
		c.t.add(s)
	}()
	return call
}

func (c *callerShim) Close() error {
	err := c.next.Close()
	c.wg.Wait()
	return err
}

// execShim records a span around each coalesced engine execution the
// frontend dispatches.
type execShim struct {
	t    *tracer
	next frontend.Executor
}

func (e *execShim) Validate(req *core.RankingRequest) error { return e.next.Validate(req) }

func (e *execShim) ExecuteBatch(items []core.BatchItem) ([][]float32, error) {
	s := span{Name: spanExec, Parent: spanMainHandle, Start: e.t.now(), Members: make([]uint64, len(items))}
	for i, it := range items {
		s.Members[i] = it.Ctx.TraceID
	}
	s.Trace = s.Members[0]
	out, err := e.next.ExecuteBatch(items)
	s.End = e.t.now()
	e.t.add(s)
	e.t.served(s.Trace, len(items))
	return out, err
}
