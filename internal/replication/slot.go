package replication

import (
	"sync/atomic"

	"repro/internal/rpc"
)

// Slot is a swappable rpc.Caller: a stable identity a Hedged replica set
// can hold while the caller behind it is torn down and replaced (a
// killed server, a revived one, a replacement replica rebuilt from a
// peer). Swaps are atomic with respect to in-flight Go calls — a call
// issued just before a swap completes on the old caller; calls issued
// after route to the new one.
type Slot struct {
	cur atomic.Pointer[callerBox]
}

// callerBox wraps the interface value so an atomic.Pointer can hold it.
type callerBox struct{ c rpc.Caller }

// NewSlot wraps an initial caller.
func NewSlot(c rpc.Caller) *Slot {
	s := &Slot{}
	s.cur.Store(&callerBox{c: c})
	return s
}

// Go implements rpc.Caller on the current occupant.
func (s *Slot) Go(req *rpc.Request) *rpc.Call { return s.cur.Load().c.Go(req) }

// Close implements rpc.Caller, closing the current occupant.
func (s *Slot) Close() error { return s.cur.Load().c.Close() }

// Swap installs a new caller and returns the previous one (which the
// caller of Swap owns and should Close when its in-flight calls are
// drained or abandoned).
func (s *Slot) Swap(c rpc.Caller) rpc.Caller {
	return s.cur.Swap(&callerBox{c: c}).c
}

var _ rpc.Caller = (*Slot)(nil)

// Unresponsive returns a caller that models a hung or partitioned
// server: calls are accepted but never answered (Done never closes).
// Failure injection swaps one into a Slot — unlike a closed connection,
// which fails promptly, silence is the failure mode health ejection
// exists for.
func Unresponsive() rpc.Caller { return unresponsive{} }

type unresponsive struct{}

func (unresponsive) Go(req *rpc.Request) *rpc.Call {
	return &rpc.Call{Req: req, Done: make(chan struct{})}
}

func (unresponsive) Close() error { return nil }
