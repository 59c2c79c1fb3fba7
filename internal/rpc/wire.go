// Package rpc is the Thrift-like remote procedure call framework the
// distributed inference runtime is built on: a length-framed binary
// protocol over TCP, a multiplexing client with synchronous and
// asynchronous calls, and a concurrent server. Service discovery — the
// paper's "universal service discovery protocol" (Section III-C) — is the
// deployment's business: whoever assembles it hands each caller its
// addresses (internal/cluster).
//
// Trace metadata (trace id, call id) rides in every request header, the
// analogue of propagating Thrift's RequestContext for distributed tracing
// (Section IV-A).
package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame and message size limits. Requests carry embedding indices and
// responses carry pooled vectors; both are bounded in practice, and the
// cap turns a corrupted length prefix into an error instead of an OOM.
const (
	// MaxFrameSize bounds one framed message.
	MaxFrameSize = 64 << 20
	frameHeader  = 4
)

// Message type tags.
const (
	msgRequest  byte = 0
	msgResponse byte = 1
)

// Request is one RPC invocation: the method selects the handler routine,
// the trace/call ids propagate tracing context, and Body is an opaque
// payload serialized by the application layer (so serde cost is measured
// where it occurs).
type Request struct {
	Method  string
	TraceID uint64
	CallID  uint64
	Body    []byte
}

// Response answers one Request, matched by CallID. A non-empty Err carries
// a remote failure.
type Response struct {
	CallID uint64
	Err    string
	Body   []byte
}

// ErrFrameTooLarge reports a frame exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// frameBufPool recycles frame scratch: the [length | message] buffers a
// frame is assembled in and written from. Nothing pooled ever crosses the
// Handler or Caller boundary — request and response bodies are copied in
// here once and the buffer goes back as soon as its Write returns — so a
// wrapper that retains a body it was handed never sees it change.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getFrameBuf returns a pooled buffer of length n. The capacity grows
// monotonically per pooled entry, so steady-state traffic with bounded
// frame sizes stops allocating entirely.
func getFrameBuf(n int) *[]byte {
	bp := frameBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putFrameBuf(bp *[]byte) { frameBufPool.Put(bp) }

// newFrame starts a frame for an n-byte message (n ≤ MaxFrameSize, which
// the wire-size functions enforce): a pooled buffer with the 4-byte
// big-endian length prefix written, and the message space after it for
// the caller to encode into — header and body are laid down once, in the
// buffer the socket write reads from.
func newFrame(n int) (frame *[]byte, msg []byte) {
	frame = getFrameBuf(frameHeader + n)
	binary.BigEndian.PutUint32(*frame, uint32(n))
	return frame, (*frame)[frameHeader:]
}

// sendFrame writes a frame as a single Write — syscalls dominate
// small-message cost on sandboxed kernels, so the prefix never goes
// separately — and returns its buffer to the pool: net.Conn.Write has
// fully consumed it by the time it returns.
func sendFrame(w io.Writer, frame *[]byte) error {
	_, err := w.Write(*frame)
	putFrameBuf(frame)
	return err
}

// responseBodyPad is the slack readFrame leaves before a response
// message so that the body of an error-free response — 15 bytes in —
// starts on a 4-byte boundary, letting the receiver read the pooled
// floats it carries in place.
const responseBodyPad = 1

// requestHeader is a request message up to its method name: type tag,
// trace id, call id and the method's length.
const requestHeader = 19

// requestBodyPad is the same slack for a request message whose method
// name is mlen bytes: its body starts requestHeader + mlen + 4 bytes in
// (27 for "rank", 33 for "sparse.run"), and the handler reads the bag
// lists it carries in place.
func requestBodyPad(mlen int) int { return -(requestHeader + mlen + 4) & 3 }

// frameReader reads a connection's frames: headers through a buffer, so
// the read that fetches a header usually brings a small frame with it,
// and whatever of a body that read did not bring straight from the
// connection into the message — a large body is not staged through the
// buffer chunk by chunk.
type frameReader struct {
	*bufio.Reader
	conn io.Reader
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{Reader: bufio.NewReaderSize(conn, 64<<10), conn: conn}
}

// readFrame reads one length-prefixed message into a fresh allocation
// (the caller hands sub-slices of it to code that may keep them), pad
// bytes into that allocation.
func readFrame(r io.Reader, pad int) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	return readFrameMsg(r, n, pad)
}

// readRequestFrame is readFrame for the server's side of a connection:
// the pad follows from the method length in the frame's own header, which
// it looks at before sizing the message. A frame too short to hold a
// request header is read unpadded and left to DecodeRequest to refuse.
func readRequestFrame(fr *frameReader) ([]byte, error) {
	n, err := readFrameLen(fr)
	if err != nil {
		return nil, err
	}
	pad := 0
	if n >= requestHeader {
		hdr, err := fr.Peek(requestHeader)
		if err != nil {
			return nil, err
		}
		pad = requestBodyPad(int(binary.LittleEndian.Uint16(hdr[requestHeader-2:])))
	}
	return readFrameMsg(fr, n, pad)
}

// readFrameLen reads a frame's length prefix.
func readFrameLen(r io.Reader) (int, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// readFrameMsg reads the n-byte message that follows a length prefix.
func readFrameMsg(r io.Reader, n, pad int) ([]byte, error) {
	msg := make([]byte, pad+n)[pad:]
	rest := msg
	if fr, ok := r.(*frameReader); ok {
		// Buffered bytes are copied out without touching the connection;
		// the remainder has no reason to pass through the buffer.
		k, _ := fr.Read(msg[:min(fr.Buffered(), len(msg))])
		rest, r = msg[k:], fr.conn
	}
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, err
	}
	return msg, nil
}

// EncodeRequest serializes a request into a frame payload.
func EncodeRequest(req *Request) ([]byte, error) {
	n, err := requestWireSize(req)
	if err != nil {
		return nil, err
	}
	return encodeRequestInto(make([]byte, n), req), nil
}

// requestWireSize returns the encoded size of req, validating bounds.
func requestWireSize(req *Request) (int, error) {
	if len(req.Method) > 0xffff {
		return 0, fmt.Errorf("rpc: method name too long (%d bytes)", len(req.Method))
	}
	n := requestHeader + len(req.Method) + 4 + len(req.Body)
	if n > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// encodeRequestInto serializes req into buf, which must be exactly
// requestWireSize bytes.
func encodeRequestInto(buf []byte, req *Request) []byte {
	buf[0] = msgRequest
	binary.LittleEndian.PutUint64(buf[1:], req.TraceID)
	binary.LittleEndian.PutUint64(buf[9:], req.CallID)
	binary.LittleEndian.PutUint16(buf[17:], uint16(len(req.Method)))
	off := 19 + copy(buf[19:], req.Method)
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(req.Body)))
	copy(buf[off+4:], req.Body)
	return buf
}

// DecodeRequest parses a frame payload into a Request.
func DecodeRequest(buf []byte) (*Request, error) { return decodeRequest(buf, "") }

// decodeRequest is DecodeRequest handed the previous frame's Method: a
// frame naming the same method shares that string instead of allocating
// its own.
func decodeRequest(buf []byte, last string) (*Request, error) {
	if len(buf) < 23 || buf[0] != msgRequest {
		return nil, fmt.Errorf("rpc: malformed request frame (%d bytes)", len(buf))
	}
	req := &Request{
		TraceID: binary.LittleEndian.Uint64(buf[1:]),
		CallID:  binary.LittleEndian.Uint64(buf[9:]),
	}
	mlen := int(binary.LittleEndian.Uint16(buf[17:]))
	if len(buf) < 19+mlen+4 {
		return nil, errors.New("rpc: truncated request method")
	}
	req.Method = last
	if m := buf[19 : 19+mlen]; string(m) != last {
		req.Method = string(m)
	}
	off := 19 + mlen
	blen := int(binary.LittleEndian.Uint32(buf[off:]))
	if len(buf) != off+4+blen {
		return nil, errors.New("rpc: truncated request body")
	}
	req.Body = buf[off+4 : off+4+blen]
	return req, nil
}

// EncodeResponse serializes a response into a frame payload.
func EncodeResponse(resp *Response) ([]byte, error) {
	n, err := responseWireSize(resp)
	if err != nil {
		return nil, err
	}
	return encodeResponseInto(make([]byte, n), resp), nil
}

// responseWireSize returns the encoded size of resp, validating bounds.
func responseWireSize(resp *Response) (int, error) {
	if len(resp.Err) > 0xffff {
		return 0, fmt.Errorf("rpc: error message too long (%d bytes)", len(resp.Err))
	}
	n := 1 + 8 + 2 + len(resp.Err) + 4 + len(resp.Body)
	if n > MaxFrameSize {
		return 0, ErrFrameTooLarge
	}
	return n, nil
}

// encodeResponseInto serializes resp into buf, which must be exactly
// responseWireSize bytes.
func encodeResponseInto(buf []byte, resp *Response) []byte {
	buf[0] = msgResponse
	binary.LittleEndian.PutUint64(buf[1:], resp.CallID)
	binary.LittleEndian.PutUint16(buf[9:], uint16(len(resp.Err)))
	off := 11 + copy(buf[11:], resp.Err)
	binary.LittleEndian.PutUint32(buf[off:], uint32(len(resp.Body)))
	copy(buf[off+4:], resp.Body)
	return buf
}

// DecodeResponse parses a frame payload into a Response.
func DecodeResponse(buf []byte) (*Response, error) {
	if len(buf) < 15 || buf[0] != msgResponse {
		return nil, fmt.Errorf("rpc: malformed response frame (%d bytes)", len(buf))
	}
	resp := &Response{CallID: binary.LittleEndian.Uint64(buf[1:])}
	elen := int(binary.LittleEndian.Uint16(buf[9:]))
	if len(buf) < 11+elen+4 {
		return nil, errors.New("rpc: truncated response error")
	}
	resp.Err = string(buf[11 : 11+elen])
	off := 11 + elen
	blen := int(binary.LittleEndian.Uint32(buf[off:]))
	if len(buf) != off+4+blen {
		return nil, errors.New("rpc: truncated response body")
	}
	resp.Body = buf[off+4 : off+4+blen]
	return resp, nil
}
