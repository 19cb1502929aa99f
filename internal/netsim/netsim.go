// Package netsim shapes real TCP connections with configured one-way
// latency and bandwidth so that a single machine can reproduce the
// paper's three-site topology (§V-A): the Management Service on Amazon
// EC2, the Task Manager on Cooley, and servables on the PetrelKube
// Kubernetes cluster, with measured RTTs of 20.7 ms (EC2<->Cooley) and
// 0.17 ms (Cooley<->PetrelKube).
//
// Shaping is applied to outbound writes on each wrapped end: bytes are
// timestamped on entry and released to the underlying connection only
// after oneWayDelay + size/bandwidth has elapsed, preserving ordering.
// Wrapping both ends of a connection therefore yields the full RTT for a
// request/response exchange, exactly like the real links.
package netsim

import (
	"net"
	"sync"
	"time"
)

// Profile describes one direction of a link.
type Profile struct {
	// OneWay is the one-way propagation delay (half the RTT).
	OneWay time.Duration
	// Bandwidth in bytes/second; zero means unlimited.
	Bandwidth float64
}

// RTT builds a symmetric profile from a round-trip time.
func RTT(rtt time.Duration, bandwidth float64) Profile {
	return Profile{OneWay: rtt / 2, Bandwidth: bandwidth}
}

// Conn wraps a net.Conn, delaying outbound bytes per the profile.
// Reads pass through untouched (the peer's Conn delays its own writes).
type Conn struct {
	net.Conn
	p Profile

	mu sync.Mutex
	// release is the virtual time at which the link becomes free: the
	// serialization of earlier writes must finish before later bytes
	// start transmitting (FIFO link).
	release time.Time

	closeOnce sync.Once
	sendq     chan delayedChunk
	done      chan struct{}
	wg        sync.WaitGroup
	writeErr  error
	errMu     sync.Mutex
}

type delayedChunk struct {
	data    []byte
	deliver time.Time
}

// Wrap shapes conn with profile p. A background goroutine owns all
// writes to the underlying connection; Close stops it.
func Wrap(conn net.Conn, p Profile) *Conn {
	c := &Conn{
		Conn:  conn,
		p:     p,
		sendq: make(chan delayedChunk, 1024),
		done:  make(chan struct{}),
	}
	c.wg.Add(1)
	go c.pump()
	return c
}

func (c *Conn) pump() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			// Drain pending chunks, still honoring their scheduled
			// delivery times (like TCP linger: queued data is not
			// accelerated by close).
			for {
				select {
				case chunk := <-c.sendq:
					if wait := time.Until(chunk.deliver); wait > 0 {
						time.Sleep(wait)
					}
					c.Conn.Write(chunk.data) //nolint:errcheck — best-effort drain
				default:
					return
				}
			}
		case chunk := <-c.sendq:
			if wait := time.Until(chunk.deliver); wait > 0 {
				timer := time.NewTimer(wait)
				<-timer.C
			}
			if _, err := c.Conn.Write(chunk.data); err != nil {
				c.errMu.Lock()
				c.writeErr = err
				c.errMu.Unlock()
				return
			}
		}
	}
}

// Write queues p for delayed delivery. It returns immediately (the link
// has infinite ingress buffering), reporting a previous asynchronous
// write error if one occurred.
func (c *Conn) Write(p []byte) (int, error) {
	select {
	case <-c.done:
		return 0, net.ErrClosed
	default:
	}
	c.errMu.Lock()
	err := c.writeErr
	c.errMu.Unlock()
	if err != nil {
		return 0, err
	}

	data := make([]byte, len(p))
	copy(data, p)

	now := time.Now()
	c.mu.Lock()
	start := c.release
	if start.Before(now) {
		start = now
	}
	var ser time.Duration
	if c.p.Bandwidth > 0 {
		ser = time.Duration(float64(len(p)) / c.p.Bandwidth * float64(time.Second))
	}
	c.release = start.Add(ser)
	deliver := c.release.Add(c.p.OneWay)
	c.mu.Unlock()

	select {
	case c.sendq <- delayedChunk{data: data, deliver: deliver}:
		return len(p), nil
	case <-c.done:
		return 0, net.ErrClosed
	}
}

// Close flushes pending chunks immediately and closes the underlying
// connection.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		c.wg.Wait()
		err = c.Conn.Close()
	})
	return err
}

// Listener wraps accepted connections with a profile.
type Listener struct {
	net.Listener
	p Profile
}

// NewListener shapes every connection accepted from l.
func NewListener(l net.Listener, p Profile) *Listener {
	return &Listener{Listener: l, p: p}
}

// Accept waits for a connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return Wrap(conn, l.p), nil
}
