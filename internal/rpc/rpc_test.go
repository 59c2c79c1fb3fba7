package rpc

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	req := &Request{Method: "sparse.run", TraceID: 42, CallID: 7, Body: []byte("payload")}
	buf, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != req.Method || got.TraceID != req.TraceID || got.CallID != req.CallID || !bytes.Equal(got.Body, req.Body) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, req)
	}
}

// A connection's frames name few methods: decoding one that names the
// method of the frame before it allocates the Request and nothing else,
// and a frame naming another is still decoded as itself.
func TestDecodeRequestSharesRepeatedMethod(t *testing.T) {
	buf, err := EncodeRequest(&Request{Method: "sparse.run", CallID: 7, Body: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		last   string
		allocs float64
	}{{"sparse.run", 1}, {"stage.begin", 2}, {"sparse.ru", 2}, {"", 2}} {
		var got *Request
		allocs := testing.AllocsPerRun(100, func() { got, err = decodeRequest(buf, tc.last) })
		if err != nil || got.Method != "sparse.run" || got.CallID != 7 || string(got.Body) != "payload" {
			t.Fatalf("after %q: decoded %+v, %v", tc.last, got, err)
		}
		if allocs != tc.allocs {
			t.Errorf("after %q: %v allocations, want %v", tc.last, allocs, tc.allocs)
		}
	}
}

func TestRequestCodecRoundTripProperty(t *testing.T) {
	f := func(method string, traceID, callID uint64, body []byte) bool {
		if len(method) > 0xffff {
			method = method[:0xffff]
		}
		req := &Request{Method: method, TraceID: traceID, CallID: callID, Body: body}
		buf, err := EncodeRequest(req)
		if err != nil {
			return false
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			return false
		}
		return got.Method == method && got.TraceID == traceID && got.CallID == callID && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponseCodecRoundTripProperty(t *testing.T) {
	f := func(callID uint64, errMsg string, body []byte) bool {
		if len(errMsg) > 0xffff {
			errMsg = errMsg[:0xffff]
		}
		resp := &Response{CallID: callID, Err: errMsg, Body: body}
		buf, err := EncodeResponse(resp)
		if err != nil {
			return false
		}
		got, err := DecodeResponse(buf)
		if err != nil {
			return false
		}
		return got.CallID == callID && got.Err == errMsg && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); err == nil {
		t.Error("short request should fail")
	}
	if _, err := DecodeResponse([]byte{0}); err == nil {
		t.Error("short response should fail")
	}
	// Valid header but truncated body length.
	req := &Request{Method: "m", Body: []byte("xxxx")}
	buf, _ := EncodeRequest(req)
	if _, err := DecodeRequest(buf[:len(buf)-1]); err == nil {
		t.Error("truncated request should fail")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, 0)
	if err != nil || string(got) != "hello" {
		t.Fatalf("frame round trip: %q, %v", got, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	// Forged oversized length prefix.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf, 0); err != ErrFrameTooLarge {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// echoHandler returns the body, uppercased method prepended.
func echoHandler(ctx trace.Context, method string, body []byte) ([]byte, error) {
	if method == "fail" {
		return nil, fmt.Errorf("handler refused trace=%d", ctx.TraceID)
	}
	return append([]byte(method+":"), body...), nil
}

func startTestServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", HandlerFunc(echoHandler), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestClientServerRoundTrip(t *testing.T) {
	s := startTestServer(t, ServerConfig{})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.CallSync(&Request{Method: "run", TraceID: 1, CallID: 1, Body: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "run:abc" {
		t.Errorf("resp = %q", resp.Body)
	}
}

func TestClientRemoteError(t *testing.T) {
	s := startTestServer(t, ServerConfig{})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CallSync(&Request{Method: "fail", TraceID: 9, CallID: 1})
	var remote *RemoteError
	if err == nil || !strings.Contains(err.Error(), "handler refused trace=9") {
		t.Fatalf("err = %v", err)
	}
	if !errorsAs(err, &remote) {
		t.Errorf("error should be RemoteError, got %T", err)
	}
}

func errorsAs(err error, target **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*target = re
	}
	return ok
}

func TestClientConcurrentCalls(t *testing.T) {
	s := startTestServer(t, ServerConfig{})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.CallSync(&Request{
				Method: "run", TraceID: uint64(i), CallID: uint64(i + 1),
				Body: []byte(fmt.Sprintf("m%d", i)),
			})
			if err != nil {
				errs[i] = err
				return
			}
			if want := fmt.Sprintf("run:m%d", i); string(resp.Body) != want {
				errs[i] = fmt.Errorf("got %q want %q", resp.Body, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestClientDuplicateCallID(t *testing.T) {
	s := startTestServer(t, ServerConfig{BoilerplateCost: 5 * time.Millisecond})
	// Pool size 1 so both calls share a connection and the duplicate is
	// detectable.
	c, err := DialPool(s.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c1 := c.Go(&Request{Method: "run", CallID: 1})
	c2 := c.Go(&Request{Method: "run", CallID: 1})
	<-c2.Done
	if c2.Err == nil || !strings.Contains(c2.Err.Error(), "duplicate") {
		t.Errorf("duplicate call id should fail fast: %v", c2.Err)
	}
	<-c1.Done
	if c1.Err != nil {
		t.Errorf("original call should succeed: %v", c1.Err)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	s := startTestServer(t, ServerConfig{BoilerplateCost: 50 * time.Millisecond})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	call := c.Go(&Request{Method: "run", CallID: 1})
	c.Close()
	<-call.Done
	if call.Err == nil {
		t.Error("pending call should fail on Close")
	}
	// Calls after close fail immediately.
	after := c.Go(&Request{Method: "run", CallID: 2})
	<-after.Done
	if after.Err != ErrClientClosed {
		t.Errorf("post-close call err = %v", after.Err)
	}
}

func TestServerShutdownFailsInflight(t *testing.T) {
	s := startTestServer(t, ServerConfig{BoilerplateCost: 20 * time.Millisecond})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := c.Go(&Request{Method: "run", CallID: 1})
	time.Sleep(2 * time.Millisecond) // let the request reach the server
	s.Close()
	<-call.Done
	// Either the response raced the close and succeeded, or the
	// connection drop surfaced an error; both are acceptable — what must
	// not happen is a hang (covered by reaching this line).
}

func TestServerRecordsSpans(t *testing.T) {
	rec := trace.NewRecorder("sparse1", 128)
	s := startTestServer(t, ServerConfig{Recorder: rec})
	c, err := Dial(s.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CallSync(&Request{Method: "run", TraceID: 3, CallID: 21, Body: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	var haveReq, haveSvc bool
	for _, sp := range rec.Spans() {
		if sp.TraceID != 3 || sp.CallID != 21 {
			t.Errorf("span has wrong trace context: %+v", sp)
		}
		switch sp.Layer {
		case trace.LayerRequest:
			haveReq = true
		case trace.LayerService:
			haveSvc = true
		}
	}
	if !haveReq || !haveSvc {
		t.Errorf("missing spans: req=%v svc=%v (%d spans)", haveReq, haveSvc, rec.Len())
	}
}

func TestNetsimLatencyInjection(t *testing.T) {
	s := startTestServer(t, ServerConfig{})
	link := netsim.NewLink(3*time.Millisecond, 0, 0, 1)
	c, err := Dial(s.Addr(), link)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.CallSync(&Request{Method: "run", CallID: 1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Errorf("injected latency missing: call took %v", elapsed)
	}
}

func TestNetsimLinkDeterministic(t *testing.T) {
	l1 := netsim.NewLink(time.Millisecond, time.Millisecond, 1e9, 7)
	l2 := netsim.NewLink(time.Millisecond, time.Millisecond, 1e9, 7)
	for i := 0; i < 20; i++ {
		if d1, d2 := l1.Delay(100), l2.Delay(100); d1 != d2 {
			t.Fatalf("same-seed links diverge at %d: %v vs %v", i, d1, d2)
		}
	}
}

func TestNetsimNilLink(t *testing.T) {
	var l *netsim.Link
	if l.Delay(100) != 0 {
		t.Error("nil link should have zero delay")
	}
	l.Apply(100) // must not panic
}

func TestNetsimBandwidthTerm(t *testing.T) {
	l := netsim.NewLink(0, 0, 1000, 1) // 1000 B/s
	if d := l.Delay(500); d != 500*time.Millisecond {
		t.Errorf("Delay(500B @ 1kB/s) = %v, want 500ms", d)
	}
}

func TestNetsimProfiles(t *testing.T) {
	dc := netsim.DataCenter(1)
	slow := netsim.Slow(1)
	if dc.Request == nil || dc.Response == nil {
		t.Fatal("DataCenter profile incomplete")
	}
	if slow.Request.Base <= dc.Request.Base {
		t.Error("Slow profile should have higher base latency")
	}
}
