package main

import (
	"fmt"
	"math"
)

// execution is one engine execution as the spans show it: its own span,
// the sparse calls made under it and what each shard spent handling them.
type execution struct {
	span     span
	calls    []interval
	embedded int64         // what the sparse calls cover of the span
	perShard map[int]int64 // shard -> handler time
}

// ladder turns the traced phase's spans into the per-layer metrics and
// checks that the rungs sum back to the client's round trip.
func ladder(r *result, fx *fixture, t *tracer, samples []sample) error {
	fronted := fx.w.front != nil
	handle := make(map[uint64]span)       // main handler span by trace
	execOf := make(map[uint64]*execution) // execution by member trace
	byLead := make(map[uint64]*execution) // execution by the trace its calls carry
	shardOf := make(map[uint64]span)      // shard handler span by call id
	var calls []span
	var execs []*execution
	newExec := func(s span) {
		e := &execution{span: s, perShard: make(map[int]int64)}
		execs = append(execs, e)
		byLead[s.Trace] = e
		for _, m := range s.Members {
			execOf[m] = e
		}
	}
	for _, s := range t.spans {
		switch s.Name {
		case spanMainHandle:
			handle[s.Trace] = s
			if !fronted {
				// No frontend: the engine runs directly under the main
				// handler, so the handler span is the execution.
				s.Members = []uint64{s.Trace}
				newExec(s)
			}
		case spanExec:
			newExec(s)
		case spanSparseCall:
			calls = append(calls, s)
		case spanShard:
			shardOf[s.Call] = s
		}
	}

	var outstanding, callTransport, shardHandle []float64
	busy := make(map[int]int64)
	for _, c := range calls {
		e := byLead[c.Trace]
		h, ok := shardOf[c.Call]
		if e == nil || !ok {
			return fmt.Errorf("bench: sparse call %d of trace %d has no execution or shard span", c.Call, c.Trace)
		}
		e.calls = append(e.calls, interval{c.Start, c.End})
		e.perShard[h.Shard] += h.dur()
		busy[h.Shard] += h.dur()
		outstanding = append(outstanding, float64(c.dur())/1e6)
		callTransport = append(callTransport, float64(c.dur()-h.dur())/1e6)
		shardHandle = append(shardHandle, float64(h.dur())/1e6)
	}
	var execMs, boundMs []float64
	for _, e := range execs {
		e.embedded = covered(e.span.Start, e.span.End, e.calls)
		execMs = append(execMs, float64(e.span.dur())/1e6)
		var bound int64
		for _, d := range e.perShard {
			bound = max(bound, d)
		}
		boundMs = append(boundMs, float64(bound)/1e6)
	}

	// The rungs, per request. Each is a mean over the requests whose
	// spans all matched; rtt is a mean over every answered request, so an
	// unmatched span shows as a gap between the two.
	var rtt, transport, wait, self, emb []float64
	for _, s := range samples {
		if !s.ok {
			continue
		}
		rtt = append(rtt, ms(s.done-s.sent))
		h, ok := handle[s.id]
		e := execOf[s.id]
		if !ok || e == nil {
			continue
		}
		transport = append(transport, ms(s.done-s.sent)-float64(h.dur())/1e6)
		wait = append(wait, float64(h.dur()-e.span.dur())/1e6)
		self = append(self, float64(e.span.dur()-e.embedded)/1e6)
		emb = append(emb, float64(e.embedded)/1e6)
	}
	r.set("client.rtt_ms_mean", mean(rtt))
	r.set("rpc.main.transport_ms_mean", mean(transport))
	r.set("frontend.wait_ms_mean", mean(wait))
	r.set("frontend.wait_ms_p50", quantile(wait, 0.5))
	r.set("frontend.wait_ms_p99", quantile(wait, 0.99))
	r.set("core.engine.self_ms_mean", mean(self))
	r.set("core.engine.embedded_ms_mean", mean(emb))
	r.set("core.engine.exec_ms_p50", quantile(execMs, 0.5))
	r.set("core.engine.exec_ms_p99", quantile(execMs, 0.99))
	r.notes["client.rtt_ms_mean"] = fmt.Sprintf("%d samples, %d matched", len(rtt), len(transport))
	r.notes["core.engine.exec_ms_p99"] = fmt.Sprintf("%d executions", len(execMs))
	sum := mean(transport) + mean(wait) + mean(self) + mean(emb)
	if gap := math.Abs(sum-mean(rtt)) / mean(rtt); !(gap <= ladderTolerance) {
		return fmt.Errorf("bench: ladder rungs sum to %.4f ms, client rtt is %.4f ms (%d of %d requests matched)", sum, mean(rtt), len(transport), len(rtt))
	}

	if len(calls) > 0 {
		r.set("rpc.sparse.outstanding_ms_p50", quantile(outstanding, 0.5))
		r.set("rpc.sparse.outstanding_ms_p99", quantile(outstanding, 0.99))
		r.set("rpc.sparse.transport_ms_mean", mean(callTransport))
		r.set("core.shard.handle_ms_p50", quantile(shardHandle, 0.5))
		r.set("core.shard.handle_ms_p99", quantile(shardHandle, 0.99))
		r.set("core.shard.bound_ms_mean", mean(boundMs))
		var total, most int64
		for _, b := range busy {
			total += b
			most = max(most, b)
		}
		r.set("core.shard.busy_imbalance", float64(most)*float64(len(busy))/float64(total))
		r.notes["rpc.sparse.outstanding_ms_p99"] = fmt.Sprintf("%d calls", len(calls))
	}
	counts(r, fx, samples, calls)
	return nil
}

// counts reports the work counted per request. It keeps to whole cycles
// of the pool where the phase completed one, so that for a given seed the
// counts repeat exactly however many requests the phase had time for.
func counts(r *result, fx *fixture, samples []sample, calls []span) {
	if k := len(samples) / len(fx.pool); k > 0 {
		samples = samples[:k*len(fx.pool)]
	}
	if len(samples) == 0 {
		return
	}
	in := make(map[uint64]bool, len(samples))
	var lookups, bytesRead float64
	for _, s := range samples {
		in[s.id] = true
		lookups += float64(fx.pool[s.idx].lookups)
		bytesRead += float64(fx.pool[s.idx].bytesRead)
	}
	var nCalls, reqB, respB float64
	for _, c := range calls {
		// A coalesced execution's calls carry its first member's trace.
		if in[c.Trace] {
			nCalls++
			reqB += float64(c.ReqB)
			respB += float64(c.RespB)
		}
	}
	n := float64(len(samples))
	r.set("rpc.sparse.calls_per_req", nCalls/n)
	r.set("rpc.sparse.req_kb_per_req", reqB/1024/n)
	r.set("rpc.sparse.resp_kb_per_req", respB/1024/n)
	r.set("embedding.lookups_per_req", lookups/n)
	r.set("embedding.kb_read_per_req", bytesRead/1024/n)
	r.notes["embedding.lookups_per_req"] = fmt.Sprintf("over %d requests", len(samples))
}
