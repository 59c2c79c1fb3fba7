package rpc

import (
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
)

// Handler processes one decoded request body and returns a response body.
// The handler owns application-level serialization so serde time is
// measured at the layer where it actually occurs.
type Handler interface {
	Handle(ctx trace.Context, method string, body []byte) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx trace.Context, method string, body []byte) ([]byte, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx trace.Context, method string, body []byte) ([]byte, error) {
	return f(ctx, method, body)
}

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Recorder receives LayerRequest/LayerService spans; nil disables
	// server-side tracing.
	Recorder *trace.Recorder
	// ResponseLink injects latency on callee→caller frames.
	ResponseLink *netsim.Link
	// BoilerplateCost is busy-work per request modeling the full Thrift
	// service stack cost each shard pays ("each shard invokes a full
	// Thrift service", Section VI-C1). It burns CPU, not just wall time.
	BoilerplateCost time.Duration
	// ComputeScale stretches BoilerplateCost (and is the hook the slower
	// SC-Small platform uses); 0 means 1.0.
	ComputeScale float64
	// MaxInFlight bounds concurrently dispatched requests; excess
	// requests are answered immediately with an overload error rather
	// than queued — the transport-level backpressure signal an SLA-aware
	// caller books as a fallback. 0 means unbounded.
	MaxInFlight int
}

// OverloadMsgPrefix starts every overload rejection's wire message;
// remote errors travel as strings, so the prefix is the contract
// IsOverload (and serve's fallback accounting) keys on.
const OverloadMsgPrefix = "overloaded:"

// ShedMsgPrefix starts every application-level load-shed rejection's
// wire message (the serving frontend's SLA drops). It lives here, next
// to OverloadMsgPrefix, because both are wire contracts of this RPC
// error channel: frontend builds its errors from it and serve's
// fallback accounting keys on it — one definition, no drift.
const ShedMsgPrefix = "shed:"

// IsShed reports whether err is an application-level load-shed
// rejection relayed by a remote handler.
func IsShed(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, ShedMsgPrefix)
}

// IsOverload reports whether err is a server-side overload rejection.
func IsOverload(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && strings.HasPrefix(re.Msg, OverloadMsgPrefix)
}

// ServerStats exposes the server's load gauges.
type ServerStats struct {
	// InFlight is the number of requests currently dispatched.
	InFlight int64
	// PeakInFlight is the high-water mark since start.
	PeakInFlight int64
	// Overloads counts requests rejected by the MaxInFlight bound.
	Overloads int64
}

// Server accepts framed RPC connections and dispatches requests to a
// Handler, one goroutine per in-flight request (requests on a connection
// are pipelined).
type Server struct {
	cfg     ServerConfig
	handler Handler
	lis     net.Listener

	inFlight  atomic.Int64
	peak      atomic.Int64
	overloads atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts a server listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, h Handler, cfg ServerConfig) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s := &Server{cfg: cfg, handler: h, lis: lis, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Stats snapshots the server's load gauges.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		InFlight:     s.inFlight.Load(),
		PeakInFlight: s.peak.Load(),
		Overloads:    s.overloads.Load(),
	}
}

// Close stops accepting, closes all connections, and waits for in-flight
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var writeMu sync.Mutex
	br := newFrameReader(conn)
	var method string // the last Method decoded: a connection names few, so frames share the string
	for {
		payload, err := readRequestFrame(br)
		if err != nil {
			return // connection closed or corrupt
		}
		req, err := decodeRequest(payload, method)
		if err != nil {
			log.Printf("rpc: dropping malformed request: %v", err)
			continue
		}
		method = req.Method
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.dispatch(conn, &writeMu, req)
		}()
	}
}

// dispatch handles and answers one decoded request, recording the
// paper's service-layer spans around the application handler.
func (s *Server) dispatch(conn net.Conn, writeMu *sync.Mutex, req *Request) {
	rec := s.cfg.Recorder
	var reqStart time.Time
	if rec != nil {
		reqStart = rec.Now()
	}
	svcStart := time.Now()
	ctx := trace.Context{TraceID: req.TraceID, CallID: req.CallID}

	// Admission at the transport: beyond MaxInFlight the server sheds
	// instead of queueing, so overload surfaces to the caller while its
	// SLA budget can still buy a fallback elsewhere.
	n := s.inFlight.Add(1)
	if max := int64(s.cfg.MaxInFlight); max > 0 && n > max {
		// Release the slot before writing the rejection: a rejected
		// request must not occupy a phantom slot while its answer is
		// encoded and written, or a rejection storm sheds requests that
		// are actually within the bound.
		s.inFlight.Add(-1)
		s.overloads.Add(1)
		// The rejection bypasses the handler but not the response link: a
		// shed answer rides the same wire home.
		s.writeOut(conn, writeMu, frameResponse(&Response{
			CallID: req.CallID,
			Err:    fmt.Sprintf("%s %d requests in flight (max %d)", OverloadMsgPrefix, n, max),
		}))
		return
	}
	defer s.inFlight.Add(-1)
	for peak := s.peak.Load(); n > peak && !s.peak.CompareAndSwap(peak, n); peak = s.peak.Load() {
	}

	// Service boilerplate: context setup plus the modeled Thrift stack
	// cost. Burned as real CPU so compute accounting sees it.
	burn(s.scaledBoilerplate())
	preDur := time.Since(svcStart)

	body, herr := s.handler.Handle(ctx, req.Method, req.Body)

	postStart := time.Now()
	resp := &Response{CallID: req.CallID, Body: body}
	if herr != nil {
		resp.Err = herr.Error()
		resp.Body = nil
	}
	frame := frameResponse(resp)
	postDur := time.Since(postStart)

	if rec != nil {
		rec.Record(trace.Span{
			TraceID: req.TraceID, CallID: req.CallID,
			Layer: trace.LayerService, Name: req.Method,
			Start: reqStart, Dur: preDur + postDur,
		})
		// The shard-side E2E span ends when the response is handed to the
		// network; transit time back to the caller is, by construction,
		// part of the caller-observed outstanding time and falls out as
		// network latency in the analyzer's subtraction.
		rec.Record(trace.Span{
			TraceID: req.TraceID, CallID: req.CallID,
			Layer: trace.LayerRequest, Name: req.Method,
			Start: reqStart, Dur: rec.Now().Sub(reqStart),
		})
	}

	s.writeOut(conn, writeMu, frame)
}

// frameResponse lays resp's header and body down once, behind the length
// prefix, in the pooled buffer the socket write will read from; the
// handler's own slice is left exactly as it was returned. A response
// that cannot be framed is answered with the reason instead, so the
// caller fails now rather than waiting on a frame that never comes.
func frameResponse(resp *Response) *[]byte {
	size, err := responseWireSize(resp)
	if err != nil {
		log.Printf("rpc: framing response: %v", err)
		resp = &Response{CallID: resp.CallID, Err: "rpc: response not sent: " + err.Error()}
		size, _ = responseWireSize(resp)
	}
	frame, msg := newFrame(size)
	encodeResponseInto(msg, resp)
	return frame
}

// writeOut writes one framed response, applying the response link's
// delay when configured — the single exit path for normal and shed
// answers alike.
func (s *Server) writeOut(conn net.Conn, writeMu *sync.Mutex, frame *[]byte) {
	size := len(*frame) - frameHeader
	write := func() {
		writeMu.Lock()
		err := sendFrame(conn, frame)
		writeMu.Unlock()
		if err != nil {
			log.Printf("rpc: write response: %v", err)
		}
	}
	if s.cfg.ResponseLink == nil {
		write()
		return
	}
	netsim.AfterFunc(s.cfg.ResponseLink.Delay(size), write)
}

func (s *Server) scaledBoilerplate() time.Duration {
	d := s.cfg.BoilerplateCost
	if s.cfg.ComputeScale > 0 {
		d = time.Duration(float64(d) * s.cfg.ComputeScale)
	}
	return d
}

// burn spins for roughly d, consuming CPU — unlike time.Sleep, this models
// boilerplate that costs compute, which is the paper's point about RPC
// service overhead being a resource cost and not just latency.
func burn(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// ErrServerClosed reports use of a closed server (exported for tests).
var ErrServerClosed = errors.New("rpc: server closed")
