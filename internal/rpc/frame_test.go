package rpc

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// writeFrame frames an arbitrary message the way the client and server
// frame theirs.
func writeFrame(w io.Writer, msg []byte) error {
	frame, space := newFrame(len(msg))
	copy(space, msg)
	return sendFrame(w, frame)
}

// TestClientCorruptResponseFailsDeterministically regresses the bug
// where a response frame that framed correctly but failed to decode was
// silently skipped, leaving its call hanging until the client was
// closed. A corrupt frame must instead fail every pending call on that
// connection promptly, with a cause, and be counted.
func TestClientCorruptResponseFailsDeterministically(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Consume the request frame, then answer with a frame whose
		// payload is garbage: valid length prefix, undecodable body.
		hdr := make([]byte, 4)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
		if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
			return
		}
		garbage := []byte{0xff, 0xde, 0xad}
		if err := writeFrame(conn, garbage); err != nil {
			return
		}
		// Hold the connection open: the *client* must decide the stream
		// is dead, not a server-side hangup.
		time.Sleep(5 * time.Second)
	}()

	before := CorruptResponses()
	c, err := DialPool(lis.Addr().String(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	call := c.Go(&Request{Method: "run", CallID: 1, Body: []byte("x")})
	select {
	case <-call.Done:
	case <-time.After(2 * time.Second):
		t.Fatal("call hung after corrupt response frame; want deterministic failure")
	}
	if call.Err == nil || !strings.Contains(call.Err.Error(), "corrupt response frame") {
		t.Fatalf("call.Err = %v, want corrupt response frame error", call.Err)
	}
	if got := CorruptResponses(); got != before+1 {
		t.Errorf("CorruptResponses() = %d, want %d", got, before+1)
	}
	// The connection is dead; later calls on it must fail fast too.
	call = c.Go(&Request{Method: "run", CallID: 2, Body: []byte("y")})
	select {
	case <-call.Done:
	case <-time.After(2 * time.Second):
		t.Fatal("follow-up call hung on corrupted connection")
	}
	if call.Err == nil {
		t.Error("follow-up call on corrupted connection succeeded")
	}
}

// BenchmarkFrameWrite measures the per-frame cost of the framing layer
// alone. With pooled scratch buffers this is 0 allocs/op steady state
// (it was 1 alloc/op — the header+payload copy — before pooling).
func BenchmarkFrameWrite(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 512)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload) + frameHeader))
	for i := 0; i < b.N; i++ {
		if err := writeFrame(io.Discard, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientRoundTrip measures allocations across a full
// client→server echo round trip, the number the request-path pooling
// (one pooled frame per message) actually moves.
func BenchmarkClientRoundTrip(b *testing.B) {
	s, err := NewServer("127.0.0.1:0", HandlerFunc(echoHandler), ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := DialPool(s.Addr(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	body := bytes.Repeat([]byte{0x42}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CallSync(&Request{Method: "run", CallID: uint64(i + 1), Body: body}); err != nil {
			b.Fatal(err)
		}
	}
}
