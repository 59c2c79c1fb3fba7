package cluster_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/rpc"
	"repro/internal/sharding"
	"repro/internal/trace"
	"repro/internal/workload"
)

// retained is one buffer a wrapper was handed at the rpc.Handler /
// rpc.Caller boundary, kept, with what it held at that moment.
type retained struct {
	what string
	kept []byte // the slice itself, as handed over
	then []byte // a copy taken at capture
}

type retainer struct {
	mu   sync.Mutex
	bufs []retained
}

func (r *retainer) keep(what string, b []byte) {
	r.mu.Lock()
	r.bufs = append(r.bufs, retained{what: what, kept: b, then: bytes.Clone(b)})
	r.mu.Unlock()
}

// retainHandler keeps every body it is handed and every slice the
// wrapped handler returns, as bench's handlerShim keeps the first 48
// executions'.
type retainHandler struct {
	r    *retainer
	name string
	next rpc.Handler
}

func (h *retainHandler) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	h.r.keep(h.name+" "+method+" request body", body)
	out, err := h.next.Handle(ctx, method, body)
	if err == nil {
		h.r.keep(h.name+" "+method+" handler return", out)
	}
	return out, err
}

// retainCaller keeps every Request.Body it forwards and every
// Call.Resp.Body that comes back — including, under a Hedged pair, the
// losing replica's, which lands after the winner's Done.
type retainCaller struct {
	r    *retainer
	name string
	next rpc.Caller
	wg   sync.WaitGroup
}

func (c *retainCaller) Go(req *rpc.Request) *rpc.Call {
	c.r.keep(c.name+" "+req.Method+" Request.Body", req.Body)
	call := c.next.Go(req)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		<-call.Done // closing the wrapped client fails what is pending
		if call.Resp != nil {
			c.r.keep(c.name+" "+req.Method+" Call.Resp.Body", call.Resp.Body)
		}
	}()
	return call
}

func (c *retainCaller) Close() error {
	err := c.next.Close()
	c.wg.Wait()
	return err
}

// TestRetainedBuffersNeverChange is the ownership rule of the sparse.run
// data path, enforced: any buffer that crosses the public rpc.Handler /
// rpc.Caller boundary is garbage-collected memory that nothing recycles,
// so a wrapper may keep it. Wrappers on every such boundary of a live
// loopback deployment (netsim links on, each sparse shard a hedged
// replica pair) keep every buffer of 200 rank requests and their
// sparse.run fan-out; afterwards every one must hold exactly what it
// held when captured, and still decode. That covers the request
// direction, which is read in place: the rank body the client sent and
// the one the main shard's handler was given (whose bag lists the engine
// hashes *from*, never into), and every sparse.run body — as the rpcOp
// built it, as each replica was sent it (twice, unchanged, when the call
// was hedged) and as each shard's handler pooled from it. It covers the
// response direction the same way, which the main shard reads in place
// too: a fetch's block tables point into Call.Resp.Body from the moment
// the call finishes until the execution returns, so every sparse.run
// response — as the hedged caller handed it to the rpcOp and as each
// replica produced it, the hedge's loser included, which answers after
// the winner's rows are already being multiplied — must hold at the end
// of the run what it held when its call finished. A frame buffer
// recycled while a retained body aliases it, a hash written through a
// view of the request, or anything written through a view into a
// response, would show here.
func TestRetainedBuffersNeverChange(t *testing.T) {
	cfg := smallModel()
	m := model.Build(cfg)
	plan, err := sharding.LoadBalanced(&cfg, 2, workload.EstimatePooling(workload.NewGenerator(cfg, 5), 50))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*trace.Recorder, plan.NumShards)
	for i := range recs {
		recs[i] = trace.NewRecorder(core.ServiceName(i+1), 1<<16)
	}
	shards, err := core.MaterializeShardsTiered(m, plan, recs, nil)
	if err != nil {
		t.Fatal(err)
	}

	keep := &retainer{}
	var callers []*retainCaller
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	hedged := make(map[string]rpc.Caller)
	var hedges []*replication.Hedged
	const hedgeDelay = 10 * time.Millisecond
	for i, sh := range shards {
		// Two servers over one store: the replicas of a hedged pair. The
		// primary's request link is slower than the hedge delay, so every
		// call goes to both, one Request is framed twice and the primary
		// — the loser — answers late. The delay stays far above the other
		// replica's round trip: a call whose attempts are all silent
		// 4×Delay past the hedge times out.
		var replicas []rpc.Caller
		for r := 0; r < 2; r++ {
			links := netsim.DataCenter(int64(100*i + r))
			if r == 0 {
				links.Request.Base += 3 * hedgeDelay
			}
			srv, err := rpc.NewServer("127.0.0.1:0", &retainHandler{r: keep, name: sh.ShardName, next: sh},
				rpc.ServerConfig{Recorder: recs[i], ResponseLink: links.Response})
			if err != nil {
				t.Fatal(err)
			}
			closers = append(closers, func() { srv.Close() })
			client, err := rpc.Dial(srv.Addr(), links.Request)
			if err != nil {
				t.Fatal(err)
			}
			rc := &retainCaller{r: keep, name: sh.ShardName + " replica", next: client}
			callers = append(callers, rc)
			replicas = append(replicas, rc)
		}
		h, err := replication.NewHedged(replicas, hedgeDelay)
		if err != nil {
			t.Fatal(err)
		}
		hedges = append(hedges, h)
		outer := &retainCaller{r: keep, name: sh.ShardName + " hedged", next: h}
		callers = append(callers, outer)
		closers = append(closers, func() { outer.Close() })
		hedged[sh.ShardName] = outer
	}

	mainRec := trace.NewRecorder("main", 1<<16)
	eng, err := core.NewEngine(m, plan, core.EngineConfig{
		Recorder:  mainRec,
		ClientFor: func(svc string) (rpc.Caller, error) { return hedged[svc], nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	mainSrv, err := rpc.NewServer("127.0.0.1:0",
		&retainHandler{r: keep, name: "main", next: &core.MainService{Engine: eng, Rec: mainRec}},
		rpc.ServerConfig{Recorder: mainRec})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, func() { mainSrv.Close() })
	dial, err := rpc.DialPool(mainSrv.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	client := &retainCaller{r: keep, name: "client", next: dial}
	callers = append(callers, client)
	closers = append(closers, func() { client.Close() })

	reqs := workload.NewGenerator(cfg, 9).GenerateBatch(200)
	want := execDirect(t, m, reqs)
	for i, req := range reqs {
		id := uint64(i + 1)
		resp, err := rpc.SyncCall(client, &rpc.Request{
			Method: core.RankMethod, TraceID: id, CallID: id,
			Body: core.EncodeRankingRequest(core.FromWorkload(req)),
		})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got, err := core.DecodeRankingResponse(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !equalScores(got.Scores, want[i]) {
			t.Fatalf("request %d scored %v, singular control %v", i, got.Scores, want[i])
		}
	}
	// The servers are still up, so every call — the hedge losers' too —
	// completes with its answer; wait for those to be kept before
	// tearing anything down.
	for _, c := range callers {
		c.wg.Wait()
	}

	var fired int64
	for _, h := range hedges {
		fired += h.Hedges()
	}
	if fired == 0 {
		t.Fatal("no call was hedged: the shared-Request path went unexercised")
	}
	sparseCalls := 0
	keep.mu.Lock()
	defer keep.mu.Unlock()
	kinds := make(map[string]int)
	for _, b := range keep.bufs {
		if !bytes.Equal(b.kept, b.then) {
			t.Fatalf("%s (%d bytes) changed after it was handed over", b.what, len(b.kept))
		}
		switch {
		case b.what == "client rank Request.Body", b.what == "main rank request body":
			kinds[b.what]++
		case strings.HasSuffix(b.what, " hedged sparse.run Request.Body"):
			kinds["sparse.run body issued"]++
		case strings.HasSuffix(b.what, " replica sparse.run Request.Body"):
			kinds["sparse.run body sent to a replica"]++
		case strings.HasSuffix(b.what, " sparse.run request body"):
			kinds["sparse.run body handled"]++
		case strings.HasSuffix(b.what, " hedged sparse.run Call.Resp.Body"):
			kinds["sparse.run response read by the engine"]++
		case strings.HasSuffix(b.what, " replica sparse.run Call.Resp.Body"):
			kinds["sparse.run response from a replica"]++
		}
	}
	// Every request body of the run was among the buffers just compared:
	// both ends of each rank call, and each sparse.run body where it was
	// issued, at every replica it went to — more sends than calls, since
	// hedges fired — and at every handler that read it.
	if kinds["client rank Request.Body"] != len(reqs) || kinds["main rank request body"] != len(reqs) {
		t.Errorf("kept %d rank bodies at the client and %d at the main shard, want %d each",
			kinds["client rank Request.Body"], kinds["main rank request body"], len(reqs))
	}
	issued, sent, handled := kinds["sparse.run body issued"], kinds["sparse.run body sent to a replica"], kinds["sparse.run body handled"]
	if issued < len(reqs) || sent != issued+int(fired) || handled != sent {
		t.Errorf("sparse.run bodies: %d issued, %d sent to replicas, %d handled; want sent = issued + %d hedges = handled", issued, sent, handled, fired)
	}
	// And every response: the one each issued call's rows were read from,
	// in place, until its execution returned, and one per send — the
	// winner's and the late loser's of every hedged call.
	if read, answered := kinds["sparse.run response read by the engine"], kinds["sparse.run response from a replica"]; read != issued || answered != sent {
		t.Errorf("sparse.run responses: %d read by the engine, %d answered by replicas; want %d and %d", read, answered, issued, sent)
	}
	for _, b := range keep.bufs {
		var err error
		switch {
		case bytes.Contains([]byte(b.what), []byte(core.MethodSparseRun+" request body")),
			bytes.Contains([]byte(b.what), []byte(core.MethodSparseRun+" Request.Body")):
			_, err = core.DecodeSparseRequest(b.kept)
			sparseCalls++
		case bytes.Contains([]byte(b.what), []byte(core.MethodSparseRun)):
			_, err = core.DecodeSparseResponse(b.kept)
		case bytes.Contains([]byte(b.what), []byte("request body")), bytes.Contains([]byte(b.what), []byte("Request.Body")):
			_, err = core.DecodeRankingRequest(b.kept)
		default:
			_, err = core.DecodeRankingResponse(b.kept)
		}
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", b.what, err)
		}
	}
	if sparseCalls < 200 {
		t.Fatalf("kept only %d sparse.run request bodies across 200 requests", sparseCalls)
	}
	t.Logf("%d buffers kept and unchanged; %d hedges fired", len(keep.bufs), fired)
}

func equalScores(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
