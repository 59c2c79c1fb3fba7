// Package serve implements the request replayer and measurement harness:
// the analogue of the paper's "production replayer [that] pre-processed
// and cached the requests before sending them to the inference servers"
// (Section V-B). Two modes match the paper's two regimes: serial blocking
// requests (Section VI, isolating per-request overheads) and open-loop
// arrivals at a target QPS (Section VII-A, the data-center regime).
package serve

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Replayer drives pre-generated requests at a main shard.
type Replayer struct {
	client *rpc.Client
	ids    trace.IDAllocator
	method string

	// Optional obs handles (nil no-ops): the client's vantage point on
	// the deployment, alongside the server-side stage metrics.
	e2e       *obs.Histogram
	fallbacks *obs.Counter
}

// NewReplayer wraps a connected client to the main shard.
func NewReplayer(client *rpc.Client) *Replayer {
	return &Replayer{client: client, method: core.RankMethod}
}

// NewReplayerFor wraps a connected client to a co-serving front door,
// addressing every request at one hosted model ("rank@<model>"; an
// empty model is the plain single-model method).
func NewReplayerFor(client *rpc.Client, model string) *Replayer {
	return &Replayer{client: client, method: core.RankMethodFor(model)}
}

// Instrument folds every Send into reg: client.e2e_ns takes the
// client-observed round-trip latency, client.fallbacks counts shed
// responses. With a nil or discarding registry the handles are nil and
// the replay path is untouched.
func (rp *Replayer) Instrument(reg *obs.Registry) {
	rp.e2e = reg.Histogram("client.e2e_ns")
	rp.fallbacks = reg.Counter("client.fallbacks")
}

// Result summarizes one replay run from the client's vantage point.
// Component-level attributions come from the trace collector, not from
// here; client-observed E2E is kept for sanity checks.
type Result struct {
	Sent      int
	Errors    []error
	ClientE2E []time.Duration
	// Fallbacks counts requests the serving side deliberately shed — the
	// paper's "dropped in favor of a potentially lower quality
	// recommendation result". They are intentional quality degradation
	// under load, not hard failures, and are booked separately.
	Fallbacks int
}

// Failed returns the number of failed requests (fallbacks excluded).
func (r *Result) Failed() int { return len(r.Errors) }

// IsFallback reports whether err is a deliberate load-shed rejection —
// a frontend shed (rpc.ShedMsgPrefix) or a transport overload
// rejection — as opposed to a hard failure.
func IsFallback(err error) bool {
	return rpc.IsOverload(err) || rpc.IsShed(err)
}

// record books one response into the result (caller holds any lock).
func (r *Result) record(d time.Duration, err error) {
	r.Sent++
	switch {
	case err == nil:
		r.ClientE2E = append(r.ClientE2E, d)
	case IsFallback(err):
		r.Fallbacks++
	default:
		r.Errors = append(r.Errors, err)
	}
}

// Send issues one request, waits for its response, and returns the
// scores — the building block for callers that compare outputs across
// deployments (the resharding identity check) on top of timing.
func (rp *Replayer) Send(req *workload.Request) ([]float32, time.Duration, error) {
	body := core.EncodeRankingRequest(core.FromWorkload(req))
	return rp.call(req, body, time.Now())
}

// call sends body, waits for its response, and times it from start.
func (rp *Replayer) call(req *workload.Request, body []byte, start time.Time) ([]float32, time.Duration, error) {
	resp, err := rp.client.CallSync(&rpc.Request{
		Method:  rp.method,
		TraceID: rp.ids.NewTraceID(),
		CallID:  req.ID,
		Body:    body,
	})
	elapsed := time.Since(start)
	rp.e2e.Observe(int64(elapsed))
	if err != nil {
		if IsFallback(err) {
			rp.fallbacks.Inc()
		}
		return nil, elapsed, err
	}
	rr, err := core.DecodeRankingResponse(resp.Body)
	if err != nil {
		return nil, elapsed, err
	}
	if len(rr.Scores) != req.Items {
		return nil, elapsed, fmt.Errorf("serve: request %d returned %d scores for %d items", req.ID, len(rr.Scores), req.Items)
	}
	return rr.Scores, elapsed, nil
}

// send issues one request and waits for its response.
func (rp *Replayer) send(req *workload.Request) (time.Duration, error) {
	_, elapsed, err := rp.Send(req)
	return elapsed, err
}

// RunSerial replays requests one at a time, blocking on each response —
// the paper's per-request overhead methodology ("requests were sent
// serially, to isolate inherent overheads").
func (rp *Replayer) RunSerial(reqs []*workload.Request) *Result {
	res := &Result{}
	for _, req := range reqs {
		d, err := rp.send(req)
		res.record(d, err)
	}
	return res
}

// RunSerialScored replays requests serially like RunSerial, also
// returning each request's scores (nil for failed or shed requests) in
// request order — the identity-checking mode the resharding experiment
// compares against a control deployment.
func (rp *Replayer) RunSerialScored(reqs []*workload.Request) ([][]float32, *Result) {
	res := &Result{}
	scores := make([][]float32, len(reqs))
	for i, req := range reqs {
		s, d, err := rp.Send(req)
		if err == nil {
			scores[i] = s
		}
		res.record(d, err)
	}
	return scores, res
}

// RunOpenLoop replays requests with uniform inter-arrival spacing at the
// target QPS regardless of response completion (an open-loop load model,
// as a production replayer sending live traffic behaves). It waits for
// all responses before returning.
//
// A request is timed from when it was due, not from when it was sent: a
// stall that holds up the sends behind it — the replayer's own process
// descheduled, or the host's one CPU busy producing a slow response — is
// latency those requests would have seen, and is charged to them.
func (rp *Replayer) RunOpenLoop(reqs []*workload.Request, qps float64) *Result {
	if qps <= 0 {
		return rp.RunSerial(reqs)
	}
	interval := time.Duration(float64(time.Second) / qps)
	res := &Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range reqs {
		// Pace against the absolute schedule so response stalls do not
		// slow the arrival process.
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(req *workload.Request) {
			defer wg.Done()
			_, d, err := rp.call(req, core.EncodeRankingRequest(core.FromWorkload(req)), due)
			mu.Lock()
			defer mu.Unlock()
			res.record(d, err)
		}(req)
	}
	wg.Wait()
	return res
}
