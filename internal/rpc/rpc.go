package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Handler processes one request payload and returns a response payload.
//
// Payload lifetime: the payload is backed by a pooled buffer that is
// recycled after the handler's response frame has been written. A
// handler may read the payload and may return a response that aliases
// it, but must not retain the slice past its return — copy first if the
// bytes need to outlive the call.
//
// ctx belongs to the connection: it is canceled when the connection's
// read loop exits (peer closed, read error, server closed).
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// OneWay processes a one-way frame. It runs on the connection's read
// loop, in the order the frames arrived, so it must not block, and its
// payload is recycled when it returns. An error closes the connection:
// a one-way frame has no response to carry it.
//
// A connection's one-way frames open at most MaxStreams streams, each
// kept until the connection ends; a frame on one more closes it.
type OneWay func(st *Stream, payload []byte) error

// route is one registered method: a request handler or a one-way one.
type route struct {
	h      Handler
	oneWay OneWay
}

// Server serves binary-framed RPC over a listener.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]route
	listener net.Listener
	conns    map[net.Conn]struct{} // accepted and not yet closed
	closed   bool

	serving sync.WaitGroup // one per connection read loop
}

// NewServer returns a server with no registered methods.
func NewServer() *Server {
	return &Server{handlers: make(map[string]route), conns: make(map[net.Conn]struct{})}
}

// Handle registers a handler for a method name, replacing any previous
// registration.
func (s *Server) Handle(method string, h Handler) { s.register(method, route{h: h}) }

// HandleOneWay registers the handler of a method the client sends as
// one-way frames (Client.Send), replacing any previous registration.
func (s *Server) HandleOneWay(method string, h OneWay) { s.register(method, route{oneWay: h}) }

func (s *Server) register(method string, rt route) {
	s.mu.Lock()
	s.handlers[method] = rt
	s.mu.Unlock()
}

// Serve accepts connections on l until Close. It always returns a
// non-nil error; after Close it returns net.ErrClosed. A Serve that
// starts after Close closes l and returns at once: it is usually run on
// its own goroutine, which a quick Close can beat to here.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return net.ErrClosed
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = struct{}{}
		s.serving.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, closes every accepted connection and returns
// once each connection's read loop has exited. A request handler still
// running finishes, but its response has nowhere to go.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.serving.Wait()
	return err
}

// serverConn is one accepted connection: its frames are written whole
// under wmu, from request goroutines and pushes alike, and ctx ends with
// its read loop.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex
	ctx  context.Context
}

func (c *serverConn) write(f frame) error {
	c.wmu.Lock()
	err := writeFrame(c.conn, f)
	c.wmu.Unlock()
	return err
}

// MaxStreams bounds the streams one connection's one-way frames open.
const MaxStreams = 16

// Stream is one stream of a connection as the server sees it: the
// client's one-way frames on it reach their handler with it, and Push
// sends frames back on it.
type Stream struct {
	// State belongs to the stream's handlers: set by one, it is handed
	// to the handler of the stream's next frame. Only the read loop
	// touches it.
	State any
	id    uint64
	conn  *serverConn
}

// Push writes head then body as one frame on the stream. It may be
// called from any goroutine.
func (st *Stream) Push(head, body []byte) error {
	return st.conn.write(frame{typ: framePush, id: st.id, head: head, payload: body})
}

// Context is canceled when the stream's connection ends.
func (st *Stream) Context() context.Context { return st.conn.ctx }

func (s *Server) serveConn(conn net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	defer s.serving.Done()
	// The connection is closed before ctx ends, so a push racing the end
	// of its stream fails instead of writing to a peer that is gone.
	defer cancel()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	c := &serverConn{conn: conn, ctx: ctx}
	// One buffer per connection: a small frame costs one read syscall.
	r := bufio.NewReader(conn)
	streams := make(map[uint64]*Stream)
	for {
		// Request bodies come from the frame pool: each is recycled once
		// its response hits the wire (a one-way frame's, once its handler
		// returns), so at steady state the read loop allocates no bodies.
		f, err := readFramePooled(r)
		if err != nil {
			return
		}
		s.mu.RLock()
		rt := s.handlers[string(f.method)] // a lookup by bytes: no string is made
		s.mu.RUnlock()
		switch f.typ {
		case frameRequest:
			// Each request runs in its own goroutine: the protocol is
			// multiplexed, like gRPC streams over one HTTP/2 connection.
			go c.serve(rt.h, f)
		case frameOneWay:
			st := streams[f.id]
			if st == nil && len(streams) < MaxStreams {
				st = &Stream{id: f.id, conn: c}
				streams[f.id] = st
			}
			ok := st != nil && rt.oneWay != nil && rt.oneWay(st, f.payload) == nil
			recycleFrame(&f)
			if !ok {
				return
			}
		default:
			recycleFrame(&f)
		}
	}
}

// serve answers one request.
func (c *serverConn) serve(h Handler, f frame) {
	resp := frame{typ: frameResponse, id: f.id}
	var err error
	if h == nil {
		err = errors.New("unknown method: " + string(f.method))
	} else {
		resp.payload, err = h(c.ctx, f.payload)
	}
	if err != nil {
		resp = frame{typ: frameError, id: f.id, payload: []byte(err.Error())}
	}
	if err := c.write(resp); errors.Is(err, ErrFrameTooLarge) {
		// Nothing was written: answer, or the caller waits out its deadline.
		c.write(frame{typ: frameError, id: f.id, payload: []byte(err.Error())}) //nolint:errcheck — as for any response
	}
	// Recycle only after the response is written: handlers may return a
	// response aliasing the pooled request payload.
	recycleFrame(&f)
}

// RemoteError is an error string returned by the remote handler.
type RemoteError string

func (e RemoteError) Error() string { return string(e) }

// Client is a persistent multiplexed connection to a Server.
type Client struct {
	conn net.Conn

	nextID  atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan frame
	streams map[uint64]func(payload []byte) // push receivers, by stream id
	wmu     sync.Mutex
	closed  atomic.Bool
	readErr error
	done    chan struct{} // closed when the read loop ends
}

// ErrClientClosed is returned for calls on a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// NewClient wraps an established connection. The caller keeps ownership
// of dialing (so netsim-shaped conns can be injected).
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]chan frame), streams: make(map[uint64]func([]byte)), done: make(chan struct{})}
	go c.readLoop()
	return c
}

// Dial connects to addr over plain TCP and returns a client.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

func (c *Client) readLoop() {
	r := bufio.NewReader(c.conn)
	for {
		f, err := readFrame(r)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			close(c.done)
			return
		}
		c.mu.Lock()
		if f.typ == framePush {
			onPush := c.streams[f.id]
			c.mu.Unlock()
			if onPush != nil {
				onPush(f.payload)
			}
			continue
		}
		ch, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// Open starts a stream for Send and returns its id. Frames the server
// pushes on it go to onPush, which runs on the read loop — it must not
// block — and owns the payload it is handed.
func (c *Client) Open(onPush func(payload []byte)) uint64 {
	id := c.nextID.Add(1)
	c.mu.Lock()
	c.streams[id] = onPush
	c.mu.Unlock()
	return id
}

// Send writes head then payload as one one-way frame on stream id. No
// response comes: a nil error means the frame was written, not handled.
func (c *Client) Send(id uint64, method string, head, payload []byte) error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	c.wmu.Lock()
	err := writeFrame(c.conn, frame{typ: frameOneWay, id: id, method: []byte(method), head: head, payload: payload})
	c.wmu.Unlock()
	return err
}

// Done is closed once the connection's read loop has ended.
func (c *Client) Done() <-chan struct{} { return c.done }

// Call sends a request and waits for its response. Concurrent Calls
// share the connection.
func (c *Client) Call(ctx context.Context, method string, payload []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	id := c.nextID.Add(1)
	ch := make(chan frame, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("rpc: connection failed: %w", err)
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := writeFrame(c.conn, frame{typ: frameRequest, id: id, method: []byte(method), payload: payload})
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}

	select {
	case f, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("rpc: connection closed mid-call")
		}
		if f.typ == frameError {
			return nil, RemoteError(f.payload)
		}
		return f.payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Close tears down the connection; outstanding calls fail.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.conn.Close()
}
