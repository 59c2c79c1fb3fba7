package frontend

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// lowerGateBurst sets gateBurst to d for the rest of the test, to keep
// its gate waits short.
func lowerGateBurst(t *testing.T, d time.Duration) {
	t.Helper()
	old := gateBurst
	gateBurst = d
	t.Cleanup(func() { gateBurst = old })
}

func TestDrainGateCreditLedger(t *testing.T) {
	lowerGateBurst(t, 40*time.Millisecond)
	g := newDrainGate()
	g.add("a", 0.5)

	// Fresh tenants start with a full burst of credit: runnable.
	if d := g.delayFor("a", time.Now()); d != 0 {
		t.Fatalf("fresh tenant delayed %v, want 0", d)
	}

	// Spend past the burst: 100ms of busy at share 0.5 leaves ~-60ms
	// credit, so the tenant must wait ~120ms of wall time.
	g.charge("a", 100*time.Millisecond)
	d := g.delayFor("a", time.Now())
	if d < 80*time.Millisecond || d > 160*time.Millisecond {
		t.Errorf("post-debt delay = %v, want ≈120ms", d)
	}

	// Doubling the share halves the remaining wait.
	g.setShare("a", 1.0)
	d2 := g.delayFor("a", time.Now())
	if d2 >= d {
		t.Errorf("delay after share increase = %v, want < %v", d2, d)
	}

	// Unknown tenants and nil gates fail open.
	if d := g.delayFor("ghost", time.Now()); d != 0 {
		t.Errorf("unknown tenant delayed %v, want 0", d)
	}
	var nilGate *drainGate
	if d := nilGate.delayFor("a", time.Now()); d != 0 {
		t.Errorf("nil gate delayed %v, want 0", d)
	}
	nilGate.wait("a")
	nilGate.charge("a", time.Second)
}

func TestDrainGateDebtIsBounded(t *testing.T) {
	lowerGateBurst(t, 10*time.Millisecond)
	g := newDrainGate()
	g.add("a", 0.25)
	// One pathological execution must not stall the tenant open-endedly:
	// debt floors at 4 bursts, so the wait is at most 4*burst/share.
	g.charge("a", 10*time.Second)
	if d := g.delayFor("a", time.Now()); d > 170*time.Millisecond {
		t.Errorf("delay after giant execution = %v, want ≤ ~160ms", d)
	}
}

func TestDrainGateCreditCapsAtBurst(t *testing.T) {
	lowerGateBurst(t, 10*time.Millisecond)
	g := newDrainGate()
	g.add("a", 1.0)
	gt := g.tenants["a"]
	// Pretend the tenant idled for a long time: refill must clamp.
	g.mu.Lock()
	gt.last = time.Now().Add(-10 * time.Second)
	g.refill(gt, time.Now())
	credit := gt.credit
	g.mu.Unlock()
	if credit > float64(10*time.Millisecond) {
		t.Errorf("idle credit = %v ns, want ≤ burst", credit)
	}
}

func TestMultiRoutesPerTenant(t *testing.T) {
	m := NewMulti(4)
	execA, execB := &fakeExec{}, &fakeExec{}
	if _, err := m.Add("a", execA, Config{}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add("b", execB, Config{}, 2); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Add("a", execA, Config{}, 1); err == nil {
		t.Error("duplicate Add must fail")
	}
	if _, err := m.Add("", execA, Config{}, 1); err == nil {
		t.Error("empty tenant name must fail")
	}

	if _, err := m.Submit("a", trace.Context{}, fakeReq(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("b", trace.Context{}, fakeReq(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("ghost", trace.Context{}, fakeReq(3)); err == nil {
		t.Error("unknown tenant must error")
	}
	if got := execA.numBatches() + execB.numBatches(); got != 2 {
		t.Errorf("executed %d batches across tenants, want 2", got)
	}
	if m.Tenant("a").Stats().Completed != 1 || m.Tenant("b").Stats().Completed != 1 {
		t.Error("per-tenant stats must book exactly their own traffic")
	}
}

func TestMultiServiceMethodRouting(t *testing.T) {
	m := NewMulti(2)
	exec := &fakeExec{}
	if _, err := m.Add("drm1", exec, Config{}, 2); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	svc := &MultiService{M: m, Rec: trace.NewRecorder("front", 64)}

	body := core.EncodeRankingRequest(fakeReq(7))
	if _, err := svc.Handle(trace.Context{}, core.RankMethodFor("drm1"), body); err != nil {
		t.Fatalf("rank@drm1: %v", err)
	}
	// Bare "rank" resolves while exactly one tenant is hosted.
	if _, err := svc.Handle(trace.Context{}, core.RankMethod, body); err != nil {
		t.Fatalf("bare rank with one tenant: %v", err)
	}
	if _, err := svc.Handle(trace.Context{}, "rank@ghost", body); err == nil ||
		!strings.Contains(err.Error(), "unknown model") {
		t.Errorf("rank@ghost err = %v, want unknown model", err)
	}
	if _, err := svc.Handle(trace.Context{}, "migrate.begin", body); err == nil {
		t.Error("non-rank method must be rejected")
	}

	exec2 := &fakeExec{}
	if _, err := m.Add("drm2", exec2, Config{}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Handle(trace.Context{}, core.RankMethod, body); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("bare rank with two tenants err = %v, want ambiguous", err)
	}
}

func TestSplitRankMethod(t *testing.T) {
	cases := []struct {
		method, model string
		ok            bool
	}{
		{"rank", "", true},
		{"rank@DRM1", "DRM1", true},
		{"rank@", "", false},
		{"ranked", "", false},
		{"migrate.begin", "", false},
	}
	for _, c := range cases {
		model, ok := core.SplitRankMethod(c.method)
		if model != c.model || ok != c.ok {
			t.Errorf("SplitRankMethod(%q) = (%q, %v), want (%q, %v)", c.method, model, ok, c.model, c.ok)
		}
	}
	if got := core.RankMethodFor(""); got != "rank" {
		t.Errorf("RankMethodFor(\"\") = %q", got)
	}
}

func TestMultiWeightedDrainLimitsShare(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based entitlement ratio check")
	}
	// Two tenants with a 3:1 entitlement split, both saturating their
	// dispatchers with equal offered load: completed work must track the
	// entitlement, not the offered load — the non-work-conserving drain
	// that makes replica allocation mean something.
	lowerGateBurst(t, 10*time.Millisecond)
	m := NewMulti(4)
	mk := func(name string, units float64) *fakeExec {
		exec := &fakeExec{delay: 2 * time.Millisecond}
		if _, err := m.Add(name, exec, Config{MaxBatchRequests: 1}, units); err != nil {
			t.Fatal(err)
		}
		return exec
	}
	mk("big", 3)
	mk("small", 1)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range []string{"big", "small"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			var id uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				id++
				_, _ = m.Submit(name, trace.Context{}, fakeReq(id))
			}
		}(name)
	}
	time.Sleep(700 * time.Millisecond)
	close(stop)
	wg.Wait()
	m.Close()

	big := float64(m.Tenant("big").Stats().Completed)
	small := float64(m.Tenant("small").Stats().Completed)
	if small == 0 {
		t.Fatal("small tenant starved outright")
	}
	ratio := big / small
	// Want ≈3 with wide tolerance for scheduler noise on shared runners.
	if ratio < 1.6 || ratio > 6.0 {
		t.Errorf("completed ratio big/small = %.2f (big=%v small=%v), want ≈3", ratio, big, small)
	}
}
