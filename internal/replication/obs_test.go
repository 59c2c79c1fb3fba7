package replication

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
)

// HealthSnapshot must always be internally consistent under concurrent
// outcome reporting: the Ejected count agrees with the per-replica
// states, per-replica counters never run backwards, and EjectedFor is
// only set on ejected replicas. Run with -race this also proves the
// snapshot path takes the tracker lock (no half-written state).
func TestHealthSnapshotConcurrent(t *testing.T) {
	const replicas = 4
	ht := NewHealthTracker(replicas, HealthConfig{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				// Alternate streaks so replicas keep crossing the breaker
				// threshold in both directions while snapshots run.
				if j%7 < 4 {
					ht.ReportFailure(idx)
				} else {
					ht.ReportSuccess(idx)
				}
				ht.Allow(idx)
			}
		}(i)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	var prev HealthSnapshot
	for time.Now().Before(deadline) {
		s := ht.Snapshot()
		if len(s.Replicas) != replicas {
			t.Fatalf("snapshot has %d replicas, want %d", len(s.Replicas), replicas)
		}
		ejected := 0
		for i, r := range s.Replicas {
			switch r.State {
			case ReplicaHealthy:
				if r.EjectedFor != 0 {
					t.Fatalf("replica %d healthy but EjectedFor=%v", i, r.EjectedFor)
				}
			case ReplicaEjected:
				ejected++
			default:
				t.Fatalf("replica %d has torn state %q", i, r.State)
			}
			if r.ConsecutiveFails < 0 || r.Successes < 0 || r.Failures < 0 ||
				r.Ejections < 0 || r.Probes < 0 || r.Recoveries < 0 {
				t.Fatalf("replica %d has negative counters: %+v", i, r)
			}
			if len(prev.Replicas) == replicas {
				p := prev.Replicas[i]
				if r.Successes < p.Successes || r.Failures < p.Failures || r.Ejections < p.Ejections {
					t.Fatalf("replica %d counters ran backwards: %+v then %+v", i, p, r)
				}
			}
		}
		if s.Ejected != ejected {
			t.Fatalf("Ejected=%d but %d replicas report ejected state", s.Ejected, ejected)
		}
		prev = s
	}
	close(stop)
	wg.Wait()
}

func TestHedgedRegisterMetrics(t *testing.T) {
	ht := NewHealthTracker(2, HealthConfig{})
	h := &Hedged{
		Replicas: []rpc.Caller{Unresponsive(), Unresponsive()},
		Delay:    time.Millisecond,
		Health:   ht,
	}
	h.hedges.Add(3)
	h.wins.Add(2)
	h.failovers.Add(1)
	h.failoverAttempts.Add(4)
	ht.ReportSuccess(0)
	ht.ReportFailure(1)

	reg := obs.NewRegistry()
	h.RegisterMetrics(reg, "replication.sparse1.")
	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"replication.sparse1.hedges":            3,
		"replication.sparse1.wins":              2,
		"replication.sparse1.failovers":         1,
		"replication.sparse1.failover_attempts": 4,
		"replication.sparse1.call_successes":    1,
		"replication.sparse1.call_failures":     1,
		"replication.sparse1.ejected":           0,
	} {
		if got := s.Gauge(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// fastCaller completes every call immediately.
type fastCaller struct{}

func (fastCaller) Go(req *rpc.Request) *rpc.Call {
	c := &rpc.Call{Req: req, Resp: &rpc.Response{}, Done: make(chan struct{})}
	close(c.Done)
	return c
}

func (fastCaller) Close() error { return nil }

// TestHedgedBooksReplicaLatency: the call loop books the answering
// replica's latency into its call_ns, and the silent primary it stopped
// waiting for into its lost — and books nothing, spawning nothing, into
// a discarding registry.
func TestHedgedBooksReplicaLatency(t *testing.T) {
	reg := obs.NewRegistry()
	h, err := NewHedged([]rpc.Caller{Unresponsive(), fastCaller{}}, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	h.RegisterMetrics(reg, "r.")
	call := h.Go(&rpc.Request{Method: "x"})
	<-call.Done
	if call.Err != nil {
		t.Fatal(call.Err)
	}
	// The primary is struck at 2×Delay; the loop then stops waiting.
	lost := reg.Counter("r.replica0.lost")
	waitFor(t, func() bool { return lost.Load() == 1 })
	if n := reg.Histogram("r.replica1.call_ns").Snapshot().Count; n != 1 {
		t.Errorf("replica1.call_ns holds %d calls, want the hedge's 1", n)
	}
	if n := reg.Histogram("r.replica0.call_ns").Snapshot().Count; n != 0 {
		t.Errorf("replica0.call_ns holds %d calls of a replica that never answered", n)
	}
	if n := reg.Counter("r.replica1.lost").Load(); n != 0 {
		t.Errorf("replica1.lost = %d for the answering replica", n)
	}

	d, err := NewHedged([]rpc.Caller{Unresponsive(), fastCaller{}}, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d.RegisterMetrics(obs.Discard(), "r.")
	call = d.Go(&rpc.Request{Method: "x"})
	<-call.Done
	if call.Err != nil {
		t.Fatal(call.Err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
