package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/rpc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fakeMain serves "rank" by echoing the right number of scores, with a
// configurable delay and failure injection — enough to exercise the
// replayer without booting a model.
type fakeMain struct {
	delay    time.Duration
	failWhen func(id uint64) bool
}

func (f *fakeMain) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	if method != "rank" {
		return nil, errors.New("bad method")
	}
	req, err := core.DecodeRankingRequest(body)
	if err != nil {
		return nil, err
	}
	if f.failWhen != nil && f.failWhen(req.ID) {
		return nil, errors.New("injected failure")
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return core.EncodeRankingResponse(&core.RankingResponse{Scores: make([]float32, req.Items)}), nil
}

func startFake(t *testing.T, h rpc.Handler) *rpc.Client {
	t.Helper()
	srv, err := rpc.NewServer("127.0.0.1:0", h, rpc.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := rpc.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

func smallRequests(n int) []*workload.Request {
	cfg := model.DRM3()
	for i := range cfg.Tables {
		cfg.Tables[i].Rows = 16
		cfg.Tables[i].PoolingFactor = 1
	}
	cfg.MeanItems = 2
	return workload.NewGenerator(cfg, 3).GenerateBatch(n)
}

func TestRunSerial(t *testing.T) {
	client := startFake(t, &fakeMain{})
	res := NewReplayer(client).RunSerial(smallRequests(5))
	if res.Sent != 5 || res.Failed() != 0 || len(res.ClientE2E) != 5 {
		t.Fatalf("result = %+v", res)
	}
	for _, d := range res.ClientE2E {
		if d <= 0 {
			t.Error("non-positive E2E")
		}
	}
}

func TestRunSerialCollectsErrors(t *testing.T) {
	client := startFake(t, &fakeMain{failWhen: func(id uint64) bool { return id%2 == 0 }})
	res := NewReplayer(client).RunSerial(smallRequests(4))
	if res.Failed() != 2 {
		t.Fatalf("failed = %d, want 2", res.Failed())
	}
	if len(res.ClientE2E) != 2 {
		t.Fatalf("successes = %d, want 2", len(res.ClientE2E))
	}
}

func TestRunOpenLoopPacesAndCompletes(t *testing.T) {
	client := startFake(t, &fakeMain{delay: 5 * time.Millisecond})
	start := time.Now()
	// 8 requests at 200 QPS: arrivals span ~35ms; responses overlap.
	res := NewReplayer(client).RunOpenLoop(smallRequests(8), 200)
	elapsed := time.Since(start)
	if res.Sent != 8 || res.Failed() != 0 {
		t.Fatalf("result = %+v", res)
	}
	// Open loop must be faster than serial (8 × 5ms = 40ms + arrivals).
	if elapsed > 300*time.Millisecond {
		t.Errorf("open loop took %v; pacing broken?", elapsed)
	}
}

func TestRunOpenLoopZeroQPSFallsBackToSerial(t *testing.T) {
	client := startFake(t, &fakeMain{})
	res := NewReplayer(client).RunOpenLoop(smallRequests(3), 0)
	if res.Sent != 3 || res.Failed() != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestScoreCountValidation(t *testing.T) {
	// A server returning the wrong score count must surface as an error.
	bad := rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		return core.EncodeRankingResponse(&core.RankingResponse{Scores: []float32{1}}), nil
	})
	client := startFake(t, bad)
	reqs := smallRequests(1)
	if reqs[0].Items == 1 {
		reqs[0].Items = 2 // force mismatch regardless of generator draw
	}
	res := NewReplayer(client).RunSerial(reqs[:1])
	if res.Failed() != 1 {
		t.Fatalf("score-count mismatch not detected: %+v", res)
	}
}

func TestIsFallback(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&rpc.RemoteError{Msg: "shed: queue full (64 deep)"}, true},
		{&rpc.RemoteError{Msg: rpc.OverloadMsgPrefix + " 9 in flight"}, true},
		{&rpc.RemoteError{Msg: "core: table 3 unserved"}, false},
		{errors.New("shed: not a remote error"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := IsFallback(c.err); got != c.want {
			t.Errorf("IsFallback(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestReplayerBooksFallbacksSeparately(t *testing.T) {
	// A shed response is a fallback, not a hard failure.
	shedding := rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		req, err := core.DecodeRankingRequest(body)
		if err != nil {
			return nil, err
		}
		if req.ID%2 == 0 {
			return nil, errors.New("shed: request dropped for SLA fallback")
		}
		return core.EncodeRankingResponse(&core.RankingResponse{Scores: make([]float32, req.Items)}), nil
	})
	client := startFake(t, shedding)
	res := NewReplayer(client).RunSerial(smallRequests(6))
	if res.Failed() != 0 {
		t.Fatalf("sheds booked as failures: %v", res.Errors)
	}
	if res.Fallbacks != 3 || len(res.ClientE2E) != 3 || res.Sent != 6 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunOpenLoopConcurrentErrors(t *testing.T) {
	// Failures landing concurrently must all be booked, exactly once.
	client := startFake(t, &fakeMain{
		delay:    2 * time.Millisecond,
		failWhen: func(id uint64) bool { return id%3 == 0 },
	})
	const n = 30
	res := NewReplayer(client).RunOpenLoop(smallRequests(n), 2000)
	if res.Sent != n {
		t.Fatalf("sent %d of %d", res.Sent, n)
	}
	wantFail := n / 3
	if res.Failed() != wantFail || len(res.ClientE2E) != n-wantFail {
		t.Fatalf("failed=%d e2e=%d, want %d/%d", res.Failed(), len(res.ClientE2E), wantFail, n-wantFail)
	}
	if res.Fallbacks != 0 {
		t.Errorf("hard failures misbooked as fallbacks: %d", res.Fallbacks)
	}
}

func TestRunOpenLoopMixedFallbacksAndErrors(t *testing.T) {
	// Concurrent mix of sheds, hard failures, and successes.
	mixed := rpc.HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		req, err := core.DecodeRankingRequest(body)
		if err != nil {
			return nil, err
		}
		switch req.ID % 3 {
		case 0:
			return nil, errors.New("shed: budget exhausted")
		case 1:
			return nil, errors.New("boom")
		}
		return core.EncodeRankingResponse(&core.RankingResponse{Scores: make([]float32, req.Items)}), nil
	})
	client := startFake(t, mixed)
	const n = 30
	res := NewReplayer(client).RunOpenLoop(smallRequests(n), 3000)
	if res.Sent != n || res.Fallbacks != n/3 || res.Failed() != n/3 || len(res.ClientE2E) != n/3 {
		t.Fatalf("result = sent %d, fallbacks %d, failed %d, ok %d",
			res.Sent, res.Fallbacks, res.Failed(), len(res.ClientE2E))
	}
}
