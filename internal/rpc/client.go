package rpc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/netsim"
)

// Call is one in-flight asynchronous RPC. Done is closed when the reply
// (or a transport failure) arrives.
type Call struct {
	Req  *Request
	Resp *Response
	Err  error
	Done chan struct{}
}

func (c *Call) finish(resp *Response, err error) {
	c.Resp, c.Err = resp, err
	close(c.Done)
}

// RemoteError is a failure returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// ErrClientClosed reports use of a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// corruptResponses counts response frames that framed correctly but
// failed to decode, each of which tears down its connection. Process
// wide because corruption is a wire-integrity event, not a per-client
// property.
var corruptResponses atomic.Uint64

// CorruptResponses reports how many corrupt response frames clients in
// this process have seen. Each one killed a pooled connection.
func CorruptResponses() uint64 { return corruptResponses.Load() }

// Caller issues asynchronous RPCs. *Client is the plain implementation;
// replication.Hedged layers tail-latency hedging over a set of replica
// Callers without the call sites knowing.
type Caller interface {
	// Go issues req asynchronously; the returned Call's Done channel
	// closes on completion.
	Go(req *Request) *Call
	// Close releases the caller's connections.
	Close() error
}

// DefaultPoolSize is the number of TCP connections a client multiplexes
// over. One connection serializes frame writes and response reads; a
// small pool keeps high fan-out configurations (8 shards × several
// batches) from queuing on a single socket.
const DefaultPoolSize = 4

// Client is a pooled, multiplexing RPC client. Concurrent Go/Call
// invocations are spread round-robin across the pool's connections and
// matched to responses by call id, which the caller supplies (call ids
// also key distributed-trace spans, so the caller owns their allocation
// and must keep them unique among its in-flight calls).
type Client struct {
	subs []*clientConn
	next atomic.Uint64
	// closed is read on every Go — once per shard a request on the default
	// schedule's sparse fan-out — so it is a flag, not a lock.
	closed atomic.Bool
}

// clientConn is one pooled connection.
type clientConn struct {
	conn        net.Conn
	requestLink *netsim.Link

	writeMu sync.Mutex

	mu      sync.Mutex
	pending map[uint64]*Call
	closed  bool
}

// Dial connects a pooled client to an RPC server. requestLink, when
// non-nil, injects latency on each outgoing frame.
func Dial(addr string, requestLink *netsim.Link) (*Client, error) {
	return DialPool(addr, requestLink, DefaultPoolSize)
}

// DialPool connects with an explicit pool size (≥1).
func DialPool(addr string, requestLink *netsim.Link, size int) (*Client, error) {
	if size < 1 {
		size = 1
	}
	c := &Client{}
	for i := 0; i < size; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
		}
		sub := &clientConn{conn: conn, requestLink: requestLink, pending: make(map[uint64]*Call)}
		go sub.readLoop()
		c.subs = append(c.subs, sub)
	}
	return c, nil
}

// Close tears down all connections and fails all pending calls.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var firstErr error
	for _, sub := range c.subs {
		if err := sub.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Go issues req asynchronously on the next pooled connection. The
// returned Call's Done channel closes on completion.
func (c *Client) Go(req *Request) *Call {
	if c.closed.Load() || len(c.subs) == 0 {
		call := &Call{Req: req, Done: make(chan struct{})}
		call.finish(nil, ErrClientClosed)
		return call
	}
	sub := c.subs[c.next.Add(1)%uint64(len(c.subs))]
	return sub.issue(req)
}

// CallSync issues req and blocks for the response.
func (c *Client) CallSync(req *Request) (*Response, error) {
	call := c.Go(req)
	<-call.Done
	return call.Resp, call.Err
}

// SyncCall issues req on any Caller and blocks for the response — the
// synchronous convenience control-plane callers (migration, load
// collection) use over plain and hedged callers alike.
func SyncCall(c Caller, req *Request) (*Response, error) {
	call := c.Go(req)
	<-call.Done
	return call.Resp, call.Err
}

func (s *clientConn) close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.failPending(ErrClientClosed)
	return err
}

func (s *clientConn) failPending(err error) {
	s.mu.Lock()
	calls := s.pending
	s.pending = make(map[uint64]*Call)
	s.mu.Unlock()
	for _, call := range calls {
		call.finish(nil, err)
	}
}

func (s *clientConn) readLoop() {
	br := newFrameReader(s.conn)
	for {
		payload, err := readFrame(br, responseBodyPad)
		if err != nil {
			// Mark closed before failing pending calls so a racing issue()
			// cannot register a call that nothing will ever complete.
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			s.failPending(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			// A frame that framed correctly but does not decode means the
			// stream is corrupt; its call id is unrecoverable, so skipping
			// would leave that call hanging until Close. Tear the
			// connection down instead: every pending call fails now, with
			// a cause, and the next dial starts from a clean stream.
			corruptResponses.Add(1)
			s.mu.Lock()
			s.closed = true
			s.mu.Unlock()
			s.conn.Close()
			s.failPending(fmt.Errorf("rpc: corrupt response frame: %w", err))
			return
		}
		s.mu.Lock()
		call, ok := s.pending[resp.CallID]
		delete(s.pending, resp.CallID)
		s.mu.Unlock()
		if !ok {
			continue // stale or duplicate response
		}
		if resp.Err != "" {
			call.finish(resp, &RemoteError{Msg: resp.Err})
		} else {
			call.finish(resp, nil)
		}
	}
}

func (s *clientConn) issue(req *Request) *Call {
	call := &Call{Req: req, Done: make(chan struct{})}
	size, err := requestWireSize(req)
	if err != nil {
		call.finish(nil, err)
		return call
	}
	// Header and body are laid down once, behind the length prefix, in
	// the pooled buffer the socket write reads from. It is returned once
	// the frame write runs (write() executes exactly once, inline or on
	// the timer wheel) or on the paths below where the write never
	// happens.
	bp, msg := newFrame(size)
	encodeRequestInto(msg, req)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		putFrameBuf(bp)
		call.finish(nil, ErrClientClosed)
		return call
	}
	if _, dup := s.pending[req.CallID]; dup {
		s.mu.Unlock()
		putFrameBuf(bp)
		call.finish(nil, fmt.Errorf("rpc: duplicate call id %d", req.CallID))
		return call
	}
	s.pending[req.CallID] = call
	s.mu.Unlock()

	// Write the frame after the request link's delay. Without a link the
	// write happens inline (its cost is the op's real issue cost); with
	// one, the timer wheel performs the delayed write, modeling the NIC
	// transmit without parking an extra goroutine per message.
	write := func() {
		s.writeMu.Lock()
		err := sendFrame(s.conn, bp)
		s.writeMu.Unlock()
		if err != nil {
			s.mu.Lock()
			_, stillPending := s.pending[req.CallID]
			delete(s.pending, req.CallID)
			s.mu.Unlock()
			if stillPending {
				call.finish(nil, fmt.Errorf("rpc: write: %w", err))
			}
		}
	}
	if s.requestLink == nil {
		write()
	} else {
		netsim.AfterFunc(s.requestLink.Delay(size), write)
	}
	return call
}
