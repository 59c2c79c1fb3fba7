//go:build linux

package serve

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// holdCPU keeps the calling goroutine on its P for d: a raw nanosleep is
// a system call the scheduler is not told about, and the runtime cannot
// preempt a goroutine inside one, so with GOMAXPROCS 1 nothing else in
// the process runs until it returns — a handler burning the host's only
// CPU, without the noise of a real spin.
func holdCPU(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		_, _, errno := syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), uintptr(unsafe.Pointer(&rem)), 0)
		if errno != syscall.EINTR {
			return
		}
		ts = rem // a preemption signal cut the sleep short: sleep the rest
	}
}

// TestRunOpenLoopChargesStallsToQueuedRequests: client and server share
// one CPU, and the first request's handler holds it for 200 ms, so the
// three requests due 20, 40 and 60 ms into the run cannot be sent until
// it lets go. Each of them waited at least 140 ms for its answer from
// the moment it was due, and the replay must say so: timed from its late
// send instead, each would report well under a millisecond.
func TestRunOpenLoopChargesStallsToQueuedRequests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const stall = 200 * time.Millisecond
	var stalled atomic.Bool
	client := startFake(t, rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		req, err := core.DecodeRankingRequest(body)
		if err != nil {
			return nil, err
		}
		if stalled.CompareAndSwap(false, true) {
			holdCPU(stall)
		}
		return core.EncodeRankingResponse(&core.RankingResponse{Scores: make([]float32, req.Items)}), nil
	}))
	res := NewReplayer(client).RunOpenLoop(smallRequests(4), 50)
	if res.Sent != 4 || res.Failed() != 0 || len(res.ClientE2E) != 4 {
		t.Fatalf("result = %+v", res)
	}
	for i, d := range res.ClientE2E {
		if d < stall/2 {
			t.Errorf("response %d took %v from its due time; the stall ahead of it cost at least %v", i, d, stall-60*time.Millisecond)
		}
	}
}
