package rpc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestServerShedsBeyondMaxInFlight(t *testing.T) {
	release := make(chan struct{})
	slow := HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		<-release
		return []byte("ok"), nil
	})
	srv, err := NewServer("127.0.0.1:0", slow, ServerConfig{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.CallSync(&Request{Method: "m", CallID: uint64(i + 1)})
		}(i)
	}
	// Let the flood land, then release the one admitted handler.
	deadline := time.Now().Add(time.Second)
	for srv.Stats().Overloads < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	var ok, shed int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case IsOverload(err):
			shed++
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	if ok != 1 || shed != n-1 {
		t.Fatalf("ok=%d shed=%d, want 1/%d", ok, shed, n-1)
	}
	// The admitted request's slot is released after its answer is
	// written, so the client can get here first.
	for srv.Stats().InFlight != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.Overloads != n-1 || st.PeakInFlight != 1 || st.InFlight != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServerUnboundedByDefault(t *testing.T) {
	block := make(chan struct{})
	slow := HandlerFunc(func(ctx trace.Context, method string, body []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	srv, err := NewServer("127.0.0.1:0", slow, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := client.CallSync(&Request{Method: "m", CallID: uint64(i + 1)}); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(time.Second)
	for srv.Stats().InFlight < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().InFlight; got != n {
		t.Fatalf("in-flight = %d, want %d", got, n)
	}
	close(block)
	wg.Wait()
	if st := srv.Stats(); st.Overloads != 0 || st.PeakInFlight != n {
		t.Errorf("stats = %+v", st)
	}
}

func TestIsOverload(t *testing.T) {
	if !IsOverload(&RemoteError{Msg: OverloadMsgPrefix + " busy"}) {
		t.Error("overload remote error not recognized")
	}
	if IsOverload(&RemoteError{Msg: "shed: budget"}) || IsOverload(ErrClientClosed) {
		t.Error("non-overload errors must not match")
	}
}
