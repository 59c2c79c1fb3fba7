package rpc

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// The frames in testdata/wire/*.bin were written by the parent commit's
// EncodeRequest / EncodeResponse + writeFrame (two buffers and two
// copies per message). The single-buffer framing must put exactly those
// bytes on the wire, and read them.

func goldenRequest() *Request {
	return &Request{Method: "sparse.run", TraceID: 0x0102030405060708, CallID: 42, Body: []byte{1, 2, 3, 4, 5}}
}

func goldenResponse() *Response {
	return &Response{CallID: 42, Body: []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}}
}

func goldenErrResponse() *Response {
	return &Response{CallID: 43, Err: "overloaded: 3 requests in flight (max 2)"}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameGolden(t *testing.T) {
	// Requests, as clientConn.issue frames them.
	req := goldenRequest()
	size, err := requestWireSize(req)
	if err != nil {
		t.Fatal(err)
	}
	frame, msg := newFrame(size)
	encodeRequestInto(msg, req)
	var wire bytes.Buffer
	if err := sendFrame(&wire, frame); err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, "request_frame.bin")
	if !bytes.Equal(wire.Bytes(), want) {
		t.Errorf("request frame\n%x\nwant\n%x", wire.Bytes(), want)
	}
	if payload, err := EncodeRequest(req); err != nil || !bytes.Equal(payload, want[frameHeader:]) {
		t.Errorf("EncodeRequest = %x, %v; want the frame's payload", payload, err)
	}
	payload, err := readFrame(bytes.NewReader(want), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(payload)
	if err != nil || got.Method != req.Method || got.TraceID != req.TraceID || got.CallID != req.CallID || !bytes.Equal(got.Body, req.Body) {
		t.Errorf("golden request decodes to %+v, %v", got, err)
	}

	// Responses, as the server frames them.
	for name, resp := range map[string]*Response{
		"response_frame.bin":       goldenResponse(),
		"error_response_frame.bin": goldenErrResponse(),
	} {
		wire.Reset()
		if err := sendFrame(&wire, frameResponse(resp)); err != nil {
			t.Fatal(err)
		}
		want := readGolden(t, name)
		if !bytes.Equal(wire.Bytes(), want) {
			t.Errorf("%s: frame\n%x\nwant\n%x", name, wire.Bytes(), want)
		}
		if payload, err := EncodeResponse(resp); err != nil || !bytes.Equal(payload, want[frameHeader:]) {
			t.Errorf("%s: EncodeResponse = %x, %v; want the frame's payload", name, payload, err)
		}
		payload, err := readFrame(bytes.NewReader(want), responseBodyPad)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(payload)
		if err != nil || got.CallID != resp.CallID || got.Err != resp.Err || !bytes.Equal(got.Body, resp.Body) {
			t.Errorf("%s decodes to %+v, %v", name, got, err)
		}
	}
}

// TestResponseBodyAligned: the body of an error-free response comes off
// a live connection on a 4-byte boundary, which is what lets the main
// shard read the pooled floats inside it in place.
func TestResponseBodyAligned(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", HandlerFunc(func(_ trace.Context, _ string, body []byte) ([]byte, error) {
		return body, nil
	}), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialPool(s.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for n := 1; n <= 9; n++ {
		resp, err := c.CallSync(&Request{Method: "echo", CallID: uint64(n), Body: make([]byte, n)})
		if err != nil {
			t.Fatal(err)
		}
		if at := uintptr(unsafe.Pointer(&resp.Body[0])); at%4 != 0 {
			t.Errorf("%d-byte response body at %#x, not 4-byte aligned", n, at)
		}
	}
}

// TestRequestBodyAligned: whatever its method's length — the pad follows
// from it — a request's body reaches the handler on a 4-byte boundary,
// small frames that arrive with their header's read and large ones read
// straight from the connection alike, which is what lets the main shard
// and the sparse shards read the bag lists inside it in place.
func TestRequestBodyAligned(t *testing.T) {
	var mu sync.Mutex
	at := make(map[string]uintptr)
	s, err := NewServer("127.0.0.1:0", HandlerFunc(func(_ trace.Context, method string, body []byte) ([]byte, error) {
		mu.Lock()
		at[method] = uintptr(unsafe.Pointer(&body[0]))
		mu.Unlock()
		return nil, nil
	}), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialPool(s.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	id := uint64(0)
	for _, method := range []string{"rank", "sparse.run", "rank@DRM1", "a", "ab", "abc", "abcd"} {
		for _, n := range []int{1, 7, 100 << 10} {
			id++
			if _, err := c.CallSync(&Request{Method: method, CallID: id, Body: make([]byte, n)}); err != nil {
				t.Fatal(err)
			}
			if at[method]%4 != 0 {
				t.Errorf("%d-byte body of a %q request at %#x, not 4-byte aligned", n, method, at[method])
			}
		}
	}
	for mlen, want := range map[int]int{4: 1, 10: 3, 1: 0, 2: 3, 3: 2} {
		if got := requestBodyPad(mlen); got != want {
			t.Errorf("requestBodyPad(%d) = %d, want %d", mlen, got, want)
		}
	}
}

// TestUnframeableResponseFailsTheCall: a handler result that no frame
// can carry must come back as an error, not leave the caller waiting.
func TestUnframeableResponseFailsTheCall(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", HandlerFunc(func(trace.Context, string, []byte) ([]byte, error) {
		return make([]byte, MaxFrameSize), nil
	}), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialPool(s.Addr(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CallSync(&Request{Method: "big", CallID: 1}); err == nil {
		t.Fatal("an oversized response must fail the call")
	}
	if _, err := c.CallSync(&Request{Method: "big", CallID: 2, Body: make([]byte, MaxFrameSize)}); err != ErrFrameTooLarge {
		t.Fatalf("an oversized request: err = %v, want ErrFrameTooLarge", err)
	}
}
