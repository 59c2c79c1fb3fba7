package main

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rpc"
)

// nextID hands out trace ids, which double as rpc call ids and span
// trace ids; process-wide so ids never repeat across phases of one run.
// nextVersion does the same for published model versions, which must
// rise across phases driven at one deployment.
var nextID, nextVersion atomic.Uint64

// sample is one request as the client saw it. Times are offsets from the
// start of the phase.
type sample struct {
	id   uint64
	idx  int // position in the pool
	sent time.Duration
	done time.Duration
	// cpu is the process's CPU time when the request's burst was sent; the
	// difference between two bursts is what the requests between them cost.
	cpu time.Duration
	ok  bool // answered, and byte-identical to the control
}

// latency is what the caller felt.
func (s sample) latency() time.Duration { return s.done - s.sent }

// target is what a driver aims at: the main shard's address and, for a
// publishing workload, the deployment's publish entry point.
type target struct {
	addr    string
	publish func(*core.DeltaSet) error
}

// phase is one driven stretch of traffic and what was observed beside it.
type phase struct {
	samples []sample
	// wall and cpu are the phase's length and the process's CPU time at its
	// end: where the last window of samples stops.
	wall time.Duration
	cpu  time.Duration
	// goroutinesPeak is the largest goroutine count seen at a send.
	goroutinesPeak int
	// publishes are the durations of the publishes that completed.
	publishes  []time.Duration
	publishErr error
}

// drive sends pool requests at tgt for d from one closed-loop client,
// checking every response against the control, with the workload's
// publisher running beside it. first is the pool position of the first
// request, so consecutive phases continue the cycle instead of replaying
// its head.
//
// The loop is closed on every workload because an open one could not be
// measured on the shared 2-core host: a schedule leaves the process idle
// between arrivals, and how long the host takes to wake it set the tail
// (README.md, "Why every loop is closed").
func drive(fx *fixture, tgt target, d time.Duration, first int) (*phase, error) {
	// One connection: a single sender needs no second socket, which would
	// only add a reader goroutine on a 2-core host.
	client, err := rpc.DialPool(tgt.addr, nil, 1)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	ph := &phase{}
	stopPub := make(chan struct{})
	var pubWG sync.WaitGroup
	if fx.w.publishEvery > 0 && tgt.publish != nil {
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			ph.publishes, ph.publishErr = publishLoop(fx, tgt.publish, stopPub)
		}()
	}

	start := time.Now()
	ph.samples = driveClosed(fx, client, start, d, first, ph)
	ph.wall = time.Since(start)
	ph.cpu = cpuTime()
	close(stopPub)
	pubWG.Wait()
	return ph, ph.publishErr
}

func (fx *fixture) request(seq int) (int, *rpc.Request) {
	idx := seq % len(fx.bodies)
	id := nextID.Add(1)
	return idx, &rpc.Request{Method: core.RankMethod, TraceID: id, CallID: id, Body: fx.bodies[idx]}
}

func (fx *fixture) correct(idx int, call *rpc.Call) bool {
	return call.Err == nil && bytes.Equal(call.Resp.Body, fx.want[idx])
}

// driveClosed is one caller that sends the workload's burst of requests
// together (one request on the serial workloads), waits for every answer,
// and only then sends the next burst.
func driveClosed(fx *fixture, client rpc.Caller, start time.Time, d time.Duration, first int, ph *phase) []sample {
	var out []sample
	calls := make([]*rpc.Call, fx.w.burst)
	for seq := first; ; seq += len(calls) {
		if time.Since(start) >= d {
			return out
		}
		cpu := cpuTime()
		at := len(out)
		for j := range calls {
			idx, req := fx.request(seq + j)
			out = append(out, sample{id: req.TraceID, idx: idx, sent: time.Since(start), cpu: cpu})
			calls[j] = client.Go(req)
		}
		for j, call := range calls {
			<-call.Done
			s := &out[at+j]
			s.done = time.Since(start)
			s.ok = fx.correct(s.idx, call)
		}
		ph.goroutinesPeak = max(ph.goroutinesPeak, runtime.NumGoroutine())
	}
}

// publishLoop publishes one identity delta per tick until stop closes,
// returning how long each took.
func publishLoop(fx *fixture, publish func(*core.DeltaSet) error, stop <-chan struct{}) ([]time.Duration, error) {
	ticker := time.NewTicker(fx.w.publishEvery)
	defer ticker.Stop()
	var took []time.Duration
	for {
		select {
		case <-stop:
			return took, nil
		case <-ticker.C:
			t0 := time.Now()
			if err := publish(fx.identityDelta(nextVersion.Add(1))); err != nil {
				return took, err
			}
			took = append(took, time.Since(t0))
		}
	}
}
