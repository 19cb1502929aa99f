package queue

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/rpc"
)

// Transport exposes a Broker over the binary RPC protocol so that the
// Management Service (EC2) and Task Managers (Cooley) can share it
// across netsim-shaped links, as in the paper's deployment.
//
// Wire format. Each op is one rpc frame whose payload is a run of header
// fields, each a uvarint length followed by that many bytes, then any
// numeric field as a bare uvarint, then the body as the rest of the
// payload — never length-prefixed, never re-encoded, so the task body
// the MS wrote is the byte string the TM reads.
//
//	op        frame     payload                                  answer
//	q5.push   request   queue replyTo corr tenant | body         message ID (raw)
//	q5.ack    request   queue id                                 empty
//	q5.grant  one-way   queue | credit (> 0)                     one push frame per message, on the grant's stream:
//	                                                             id queue replyTo corr tenant | attempt | body
//	q5.reply  one-way   id queue replyTo corr tenant | attempt | body
//	q5.nack   one-way   queue id
//
// A consumer is a credit session (Kung & Morris's credit-based flow
// control; AMQP's basic.qos prefetch): its grants add credit, and while
// credit lasts the broker pushes each ready message down the grant's
// stream as one frame, spending one. q5.reply is a pushed message
// echoed with the response as its body, sent on the same stream: the
// broker answers ReplyTo, acks (queue, id) and gives the credit back in
// one step, so a task costs two frames. The session ends with its
// connection; q5.nack returns a message pushed but never taken.
// The prefix versions the protocol and the bodies it carries: a peer of
// another version gets "unknown method", not a body it misreads.
const (
	opPush  = "q5.push"
	opAck   = "q5.ack"
	opGrant = "q5.grant"
	opReply = "q5.reply"
	opNack  = "q5.nack"
)

var (
	errFrame = errors.New("queue: malformed frame")
	errLost  = errors.New("queue: connection lost")
)

// requestHeader bounds the rest of a RequestCtx message's push-frame
// header: five lengths, ID, inbox, correlation ID (base 36) and attempt.
const requestHeader = 5*binary.MaxVarintLen32 + 32 + len(inboxName) + 13 + binary.MaxVarintLen64

// FitsRequest reports whether a push frame can carry body to a remote
// consumer after RequestCtx pushed it.
func FitsRequest(queueName, tenant string, body []byte) bool {
	return requestHeader+len(queueName)+len(tenant)+len(body) <= rpc.MaxPayload("")
}

// appendFrame appends fields, then num when it is non-negative: the
// header of a frame, ahead of its body.
func appendFrame(dst []byte, num int64, fields ...string) []byte {
	for _, f := range fields {
		dst = binary.AppendUvarint(dst, uint64(len(f)))
		dst = append(dst, f...)
	}
	if num >= 0 {
		dst = binary.AppendUvarint(dst, uint64(num))
	}
	return dst
}

// encodeFrame lays out fields, then num (when non-negative), then body,
// in one exactly-sized allocation.
func encodeFrame(body []byte, num int64, fields ...string) []byte {
	n := len(body) + binary.MaxVarintLen64
	for _, f := range fields {
		n += binary.MaxVarintLen32 + len(f)
	}
	return append(appendFrame(make([]byte, 0, n), num, fields...), body...)
}

// decodeFields fills fields from the front of p and returns what
// follows them (aliasing p). The fields are substrings of a single
// copy of the header bytes — one allocation however many there are —
// so they stay valid after a pooled p is recycled. Every length is
// checked against what is left of p before it is used.
func decodeFields(p []byte, fields []string) ([]byte, error) {
	end := 0
	for range fields {
		l, n := binary.Uvarint(p[end:])
		if n <= 0 || l > uint64(len(p)-end-n) {
			return nil, errFrame
		}
		end += n + int(l)
	}
	hdr := string(p[:end])
	off := 0
	for i := range fields {
		l, n := binary.Uvarint(p[off:])
		off += n
		fields[i] = hdr[off : off+int(l)]
		off += int(l)
	}
	return p[end:], nil
}

// maxNum bounds a numeric field (an attempt count, a credit).
const maxNum = math.MaxInt32

// decodeNum reads one bare uvarint and returns what follows it.
func decodeNum(p []byte) (int64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || v > maxNum {
		return 0, nil, errFrame
	}
	return int64(v), p[n:], nil
}

// appendHeader appends m's header fields and attempt: the push frame
// and the q5.reply frame carry them ahead of a body.
func appendHeader(dst []byte, m Message) []byte {
	return appendFrame(dst, int64(m.Attempt), m.ID, m.Queue, m.ReplyTo, m.CorrelationID, m.Tenant)
}

// decodeMessage parses a header appendHeader wrote, then a body. Body
// aliases p.
func decodeMessage(p []byte) (Message, error) {
	var f [5]string
	rest, err := decodeFields(p, f[:])
	if err != nil {
		return Message{}, err
	}
	attempt, rest, err := decodeNum(rest)
	if err != nil {
		return Message{}, err
	}
	return Message{ID: f[0], Queue: f[1], ReplyTo: f[2], CorrelationID: f[3], Tenant: f[4], Attempt: int(attempt), Body: rest}, nil
}

// decodeGrant parses a q5.grant: exactly a queue name and a credit of
// at least one.
func decodeGrant(p []byte) (string, int, error) {
	var f [1]string
	rest, err := decodeFields(p, f[:])
	if err != nil {
		return "", 0, err
	}
	n, rest, err := decodeNum(rest)
	if err != nil || n == 0 || len(rest) != 0 {
		return "", 0, errFrame
	}
	return f[0], int(n), nil
}

// decodeRef parses a q5.ack or q5.nack: exactly (queue, id).
func decodeRef(p []byte) (string, string, error) {
	var f [2]string
	if rest, err := decodeFields(p, f[:]); err != nil || len(rest) != 0 {
		return "", "", errFrame
	}
	return f[0], f[1], nil
}

// Server wraps a broker for remote access.
type Server struct {
	broker *Broker
	rpc    *rpc.Server
	loops  sync.WaitGroup // one per session's pushLoop
}

// NewServer returns a broker RPC server ready to Serve.
func NewServer(b *Broker) *Server {
	s := &Server{broker: b, rpc: rpc.NewServer()}
	s.rpc.Handle(opPush, s.handlePush)
	s.rpc.Handle(opAck, s.handleAck)
	s.rpc.HandleOneWay(opGrant, s.handleGrant)
	s.rpc.HandleOneWay(opReply, s.handleReply)
	s.rpc.HandleOneWay(opNack, s.handleNack)
	return s
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error { return s.rpc.Serve(l) }

// Close stops the RPC server and returns once every session has ended
// (the broker itself is owned by the caller).
func (s *Server) Close() error {
	err := s.rpc.Close()
	s.loops.Wait()
	return err
}

func (s *Server) handlePush(_ context.Context, payload []byte) ([]byte, error) {
	var f [4]string
	body, err := decodeFields(payload, f[:])
	if err != nil {
		return nil, err
	}
	// The payload is pooled and recycled after this call; the broker
	// keeps the body, so it gets its own copy (here and in handleReply).
	return []byte(s.broker.Push(f[0], bytes.Clone(body), f[1], f[2], f[3])), nil
}

// handleAck serves q5.ack. A malformed frame names no queue: its Ack
// finds nothing.
func (s *Server) handleAck(_ context.Context, payload []byte) ([]byte, error) {
	name, id, err := decodeRef(payload)
	s.broker.Ack(name, id)
	return nil, err
}

// session is one stream's credit on one queue: the broker's consumer
// for it, whose messages pushLoop writes down the stream.
type session struct {
	consumer
	name string
	q    *namedQueue
}

// handleGrant serves q5.grant. The first grant on a stream opens its
// session, which ends — its credit withdrawn — when the connection does.
func (s *Server) handleGrant(st *rpc.Stream, payload []byte) error {
	name, n, err := decodeGrant(payload)
	if err != nil {
		return err
	}
	ss, _ := st.State.(*session)
	opened := ss == nil
	if opened {
		ss = &session{consumer: consumer{ch: make(chan Message, maxCredit)}, name: name, q: s.broker.queue(name)}
		st.State = ss
		s.loops.Add(1)
		go s.pushLoop(st, ss)
	} else if ss.name != name {
		return errFrame // a stream is one queue's session
	}
	s.broker.grant(ss.q, &ss.consumer, n, opened)
	return nil
}

// pushLoop writes what ss is handed down st, in the order the broker
// handed it, each message as one push frame, header then body — the
// body not copied into an intermediate frame. It runs beside the
// broker, so a peer that stops reading stalls only its own session. It
// ends with the connection or the first write that fails: the session
// is withdrawn, and every message handed to it and not written goes
// back on its lane at once. A message no frame can carry is dropped
// instead and its credit returned: requeued, it would be refused
// forever.
func (s *Server) pushLoop(st *rpc.Stream, ss *session) {
	defer s.loops.Done()
	var hdr [256]byte
	var err error
	for err == nil {
		select {
		case m := <-ss.ch:
			if err = st.Push(appendHeader(hdr[:0], m), m.Body); err == nil {
				s.broker.pushes.Add(1)
				continue
			}
			s.broker.pushFailures.Add(1)
			if errors.Is(err, rpc.ErrFrameTooLarge) {
				s.broker.Ack(ss.name, m.ID)
				s.broker.grant(ss.q, &ss.consumer, 1, false)
				err = nil
			} else {
				s.broker.withdraw(ss.q, &ss.consumer) // first: the Nack must not hand it back
				s.broker.Nack(ss.name, m.ID)
			}
		case <-st.Context().Done():
			err = errLost
		}
	}
	s.broker.withdraw(ss.q, &ss.consumer)
	for len(ss.ch) > 0 { // withdrawn: nothing refills it
		m := <-ss.ch
		s.broker.Nack(ss.name, m.ID)
	}
}

// handleReply serves q5.reply: answer and ack, then, on a session's
// stream, the credit the push spent comes back.
func (s *Server) handleReply(st *rpc.Stream, payload []byte) error {
	msg, err := decodeMessage(payload)
	if err != nil {
		return err
	}
	s.broker.Reply(msg, bytes.Clone(msg.Body))
	if ss, ok := st.State.(*session); ok {
		s.broker.grant(ss.q, &ss.consumer, 1, false)
	}
	return nil
}

// handleNack serves q5.nack, as handleAck does q5.ack.
func (s *Server) handleNack(_ *rpc.Stream, payload []byte) error {
	name, id, err := decodeRef(payload)
	s.broker.Nack(name, id)
	return err
}

// Client gives remote components the Broker API over a (possibly
// netsim-shaped) connection. It consumes each queue through one credit
// session.
type Client struct {
	rc    *rpc.Client
	mu    sync.Mutex
	feeds map[string]*feed
}

// feed is the client's end of a credit session on one queue.
type feed struct {
	stream uint64
	// ready holds messages pushed and not yet taken by a PullCtx. A push
	// never finds it full: this end never grants past maxCredit.
	ready chan Message
	// credit is what the broker holds for this feed, counted from this
	// end's own frames: granted, less pushed, plus replied. parked counts
	// callers in PullCtx, and queued the messages pushed to them: in
	// ready, or taken by a caller still counted in parked. All Client.mu.
	credit, parked, queued int
}

// NewClient wraps an established connection to a queue Server.
func NewClient(conn net.Conn) *Client {
	return &Client{rc: rpc.NewClient(conn), feeds: make(map[string]*feed)}
}

// Close nacks every message pushed to this client that no Pull took,
// then tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	feeds := maps.Clone(c.feeds)
	c.mu.Unlock()
	for name, f := range feeds {
		for n := len(f.ready); n > 0; n-- {
			select {
			case m := <-f.ready:
				c.rc.Send(f.stream, opNack, nil, encodeFrame(nil, -1, name, m.ID)) //nolint:errcheck — lost, it is redelivered after the visibility timeout
			default: // a Pull took it
			}
		}
	}
	return c.rc.Close()
}

// Push enqueues remotely; it returns the broker-assigned message ID.
// tenant tags the fairness lane ("" = default).
func (c *Client) Push(queueName string, body []byte, replyTo, correlationID, tenant string) (string, error) {
	out, err := c.rc.Call(context.Background(), opPush, encodeFrame(body, -1, queueName, replyTo, correlationID, tenant))
	return string(out), err
}

// feed returns the named queue's feed, opening its stream on first use.
func (c *Client) feed(queueName string) *feed {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.feeds[queueName]
	if f == nil {
		f = &feed{ready: make(chan Message, maxCredit)}
		f.stream = c.rc.Open(func(p []byte) { c.pushed(f, p) })
		c.feeds[queueName] = f
	}
	return f
}

// pushed takes one pushed frame off the read loop: the message spends a
// credit and waits in ready for a Pull (its Body is the frame's). A push
// that cannot be decoded ends the connection, since nothing could
// return the credit it spent.
func (c *Client) pushed(f *feed, p []byte) {
	m, err := decodeMessage(p)
	if err != nil {
		c.rc.Close() //nolint:errcheck — the read loop sees it next
		return
	}
	c.mu.Lock()
	f.credit--
	f.queued++
	c.mu.Unlock()
	f.ready <- m
}

// Pull is PullCtx bounded by timeout alone.
func (c *Client) Pull(queueName string, timeout time.Duration) (Message, bool, error) {
	return c.PullCtx(context.Background(), queueName, timeout)
}

// PullCtx takes the next message the broker pushed to this client on
// the named queue, waiting up to timeout and no longer than ctx lasts;
// ok is false when none came. Each caller waiting here is one credit:
// when more wait than the broker's credit and the messages already
// pushed cover, the call grants the difference, and the broker pushes
// one ready message per credit. Every call parks before it takes, even
// when a message is ready: a call that took one without parking would
// leave the parked caller it was pushed for waiting with no credit. A
// credit outlives a caller that gives up, timed out or canceled, so its
// message waits for the next call (or Close's nack). A timeout <= 0
// grants as any call does, then takes only what has already arrived,
// without waiting. The message's Body is the caller's.
func (c *Client) PullCtx(ctx context.Context, queueName string, timeout time.Duration) (_ Message, ok bool, _ error) {
	f := c.feed(queueName)
	c.mu.Lock()
	f.parked++
	grant := min(f.parked, maxCredit) - f.credit - f.queued
	f.credit += max(grant, 0)
	c.mu.Unlock()
	defer func() { // a taker leaves parked and queued at once: no count sees it in one alone
		c.mu.Lock()
		f.parked--
		if ok {
			f.queued--
		}
		c.mu.Unlock()
	}()
	if grant > 0 && c.grant(f, queueName, grant) != nil {
		return Message{}, false, errLost // the failed grant ended the connection
	}
	if timeout <= 0 {
		select {
		case m := <-f.ready:
			return m, true, nil
		default:
			return Message{}, false, nil
		}
	}
	timer := timers.Get().(*time.Timer)
	timer.Reset(timeout)
	defer func() { timer.Stop(); timers.Put(timer) }() // go 1.23+ timers: no stale fire after Stop
	select {
	case m := <-f.ready:
		return m, true, nil
	case <-timer.C:
	case <-ctx.Done():
	case <-c.rc.Done():
		return Message{}, false, errLost
	}
	return Message{}, false, nil
}

// timers holds stopped timers for PullCtx's waits.
var timers = sync.Pool{New: func() any { t := time.NewTimer(time.Hour); t.Stop(); return t }}

// grant sends a q5.grant of n on f's stream. A grant that could not be
// written ends the connection, so no count outlives a lost frame.
func (c *Client) grant(f *feed, queueName string, n int) error {
	err := c.rc.Send(f.stream, opGrant, nil, encodeFrame(nil, int64(n), queueName))
	if err != nil {
		c.rc.Close() //nolint:errcheck — the error returned is the one that matters
	}
	return err
}

// Done is closed once the connection's read loop has ended: nothing
// more arrives, and the client does not reconnect.
func (c *Client) Done() <-chan struct{} { return c.rc.Done() }

// Ack confirms processing of a delivered message.
func (c *Client) Ack(queueName, msgID string) error {
	_, err := c.rc.Call(context.Background(), opAck, encodeFrame(nil, -1, queueName, msgID))
	return err
}

// Reply answers msg and acknowledges it in one one-way frame (see
// Broker.Reply): the response inherits the request's ReplyTo,
// correlation ID and tenant tag. Sent on msg's feed, it also returns the
// credit msg's push spent. A reply no frame can carry is refused before
// anything is counted or sent, so the caller may answer with less.
func (c *Client) Reply(msg Message, body []byte) error {
	var hdr [256]byte
	head := appendHeader(hdr[:0], msg)
	if len(head)+len(body) > rpc.MaxPayload(opReply) {
		return rpc.ErrFrameTooLarge
	}
	var stream uint64
	c.mu.Lock()
	if f := c.feeds[msg.Queue]; f != nil {
		// Counted before the frame leaves: the push the credit pays for
		// may arrive before Send returns.
		stream = f.stream
		f.credit++
	}
	c.mu.Unlock()
	err := c.rc.Send(stream, opReply, head, body)
	if err != nil {
		c.rc.Close() //nolint:errcheck — as for a grant
	}
	return err
}
