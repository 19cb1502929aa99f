package rpc

import (
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
// read loop exits (peer closed, read error), so a handler that parks —
// a long poll — must select on it instead of outliving its caller.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// route is one registered method: its handler and, for methods whose
// response hands over ownership of something, the undo that takes it
// back when the response never reached the wire.
type route struct {
	h    Handler
	undo func(resp []byte)
}

// Server serves binary-framed RPC over a listener.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]route

	listener net.Listener
	conns    sync.WaitGroup
	closed   atomic.Bool
}

// NewServer returns a server with no registered methods.
func NewServer() *Server {
	return &Server{handlers: make(map[string]route)}
}

// Handle registers a handler for a method name, replacing any previous
// registration.
func (s *Server) Handle(method string, h Handler) { s.HandleUndo(method, h, nil) }

// HandleUndo is Handle for a method whose successful response transfers
// ownership to the peer (a pulled queue message): undo runs with the
// response payload when writing that response frame failed, so the
// handler's side effect can be reversed instead of stranded.
func (s *Server) HandleUndo(method string, h Handler, undo func(resp []byte)) {
	s.mu.Lock()
	s.handlers[method] = route{h: h, undo: undo}
	s.mu.Unlock()
}

// Serve accepts connections on l until Close. It always returns a
// non-nil error; after Close it returns net.ErrClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.closed.Load() {
				return net.ErrClosed
			}
			return err
		}
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections to finish
// their current requests.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.mu.RLock()
	l := s.listener
	s.mu.RUnlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var wmu sync.Mutex // serialize response frames
	// Canceled when this loop returns, i.e. when the peer is gone:
	// parked handlers (long polls) wake instead of holding their claim
	// for a caller that can no longer hear the answer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for {
		// Request bodies come from the frame pool: each is recycled by
		// its request goroutine once the response hits the wire, so at
		// steady state the read loop stops allocating per frame.
		f, err := readFramePooled(conn)
		if err != nil {
			return
		}
		if f.typ != frameRequest {
			recycleFrame(&f)
			continue
		}
		s.mu.RLock()
		rt, ok := s.handlers[string(f.method)] // a lookup by bytes: no string is made
		s.mu.RUnlock()
		// Each request runs in its own goroutine: the protocol is
		// multiplexed, like gRPC streams over one HTTP/2 connection.
		go func(f frame) {
			var resp frame
			if !ok {
				resp = frame{typ: frameError, id: f.id, payload: []byte("unknown method: " + string(f.method))}
			} else if out, err := rt.h(ctx, f.payload); err != nil {
				resp = frame{typ: frameError, id: f.id, payload: []byte(err.Error())}
			} else {
				resp = frame{typ: frameResponse, id: f.id, payload: out}
			}
			wmu.Lock()
			werr := writeFrame(conn, resp)
			if errors.Is(werr, ErrFrameTooLarge) {
				// Nothing was written: answer, or the caller waits out its deadline.
				writeFrame(conn, frame{typ: frameError, id: f.id, payload: []byte(werr.Error())}) //nolint:errcheck — as for any response
			}
			wmu.Unlock()
			if werr != nil && rt.undo != nil && resp.typ == frameResponse {
				rt.undo(resp.payload)
			}
			// Recycle only after the response is written: handlers may
			// return a response aliasing the pooled request payload.
			recycleFrame(&f)
		}(f)
	}
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
	wmu     sync.Mutex
	closed  atomic.Bool
	readErr error
}

// ErrClientClosed is returned for calls on a closed client.
var ErrClientClosed = errors.New("rpc: client closed")

// NewClient wraps an established connection. The caller keeps ownership
// of dialing (so netsim-shaped conns can be injected).
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint64]chan frame)}
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
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
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
