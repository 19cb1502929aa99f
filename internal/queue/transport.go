package queue

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"time"

	"repro/internal/rpc"
)

// Transport exposes a Broker over the binary RPC protocol so that the
// Management Service (EC2) and Task Managers (Cooley) can share it
// across netsim-shaped links, as in the paper's deployment.
//
// Wire format. Each op is one rpc call whose payload is a run of header
// fields, each a uvarint length followed by that many bytes, then any
// numeric field as a bare uvarint, then the body as the rest of the
// payload — never length-prefixed, never re-encoded, so the task body
// the MS wrote is the byte string the TM reads.
//
//	op        request                                  response
//	q4.push   queue replyTo corr tenant | body         message ID (raw)
//	q4.pull   queue | timeout_ms                       empty = nothing ready, else
//	                                                   id queue replyTo corr tenant | attempt | body
//	q4.ack    queue id                                 empty
//	q4.reply  id queue replyTo corr tenant | attempt | body   empty
//
// q4.reply is the pulled message echoed with the response as its body;
// the broker answers ReplyTo and acks (queue, id) in one step.
// The prefix versions the protocol and the bodies it carries: a peer of
// another version gets "unknown method", not a body it misreads.
const (
	opPush  = "q4.push"
	opPull  = "q4.pull"
	opAck   = "q4.ack"
	opReply = "q4.reply"
)

var errFrame = errors.New("queue: malformed frame")

// requestHeader bounds the rest of a RequestCtx message's q4.pull header:
// five lengths, ID, inbox, correlation ID (base 36) and attempt.
const requestHeader = 5*binary.MaxVarintLen32 + 32 + len(inboxName) + 13 + binary.MaxVarintLen64

// FitsRequest reports whether a q4.pull response — one rpc frame — can
// carry body to a remote consumer after RequestCtx pushed it.
func FitsRequest(queueName, tenant string, body []byte) bool {
	return requestHeader+len(queueName)+len(tenant)+len(body) <= rpc.MaxPayload("")
}

// encodeFrame lays out fields, then num (when non-negative), then body,
// in one exactly-sized allocation.
func encodeFrame(body []byte, num int64, fields ...string) []byte {
	n := len(body)
	if num >= 0 {
		n += binary.MaxVarintLen64
	}
	for _, f := range fields {
		n += binary.MaxVarintLen32 + len(f)
	}
	out := make([]byte, 0, n)
	for _, f := range fields {
		out = binary.AppendUvarint(out, uint64(len(f)))
		out = append(out, f...)
	}
	if num >= 0 {
		out = binary.AppendUvarint(out, uint64(num))
	}
	return append(out, body...)
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

// maxNum bounds a numeric field so that, read as milliseconds, it still
// fits a time.Duration.
const maxNum = uint64(math.MaxInt64 / int64(time.Millisecond))

// decodeNum reads one bare uvarint and returns what follows it.
func decodeNum(p []byte) (int64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || v > maxNum {
		return 0, nil, errFrame
	}
	return int64(v), p[n:], nil
}

// encodeMessage is the layout the q4.pull response and the q4.reply
// request share: m's header and attempt, then body.
func encodeMessage(m Message, body []byte) []byte {
	return encodeFrame(body, int64(m.Attempt), m.ID, m.Queue, m.ReplyTo, m.CorrelationID, m.Tenant)
}

// decodeMessage parses what encodeMessage wrote. Body aliases p.
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

// Server wraps a broker for remote access.
type Server struct {
	broker *Broker
	rpc    *rpc.Server
}

// NewServer returns a broker RPC server ready to Serve.
func NewServer(b *Broker) *Server {
	s := &Server{broker: b, rpc: rpc.NewServer()}
	s.rpc.Handle(opPush, s.handlePush)
	s.rpc.HandleUndo(opPull, s.handlePull, s.undoPull)
	s.rpc.Handle(opAck, s.handleAck)
	s.rpc.Handle(opReply, s.handleReply)
	return s
}

// Serve accepts connections on l until Close.
func (s *Server) Serve(l net.Listener) error { return s.rpc.Serve(l) }

// Close stops the RPC server (the broker itself is owned by the caller).
func (s *Server) Close() error { return s.rpc.Close() }

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

// handlePull long-polls under the connection's context, so a consumer
// that dies mid-poll stops being a waiter at once instead of claiming
// the next task for a dead socket.
func (s *Server) handlePull(ctx context.Context, payload []byte) ([]byte, error) {
	var f [1]string
	rest, err := decodeFields(payload, f[:])
	if err != nil {
		return nil, err
	}
	ms, rest, err := decodeNum(rest)
	if err != nil || len(rest) != 0 {
		return nil, errFrame
	}
	if ms == 0 {
		// A zero timeout is a non-blocking poll; under a cancelable ctx
		// PullCtx would read it as "wait for the connection to close".
		ctx = context.Background()
	}
	msg, ok := s.broker.PullCtx(ctx, f[0], time.Duration(ms)*time.Millisecond)
	if !ok {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		// Claimed in the instant the connection died: give it back.
		s.broker.Nack(msg.Queue, msg.ID)
		return nil, err
	}
	resp := encodeMessage(msg, msg.Body)
	if len(resp) > rpc.MaxPayload("") { // unframeable: requeued, it would loop forever
		s.broker.Ack(msg.Queue, msg.ID)
		return nil, rpc.ErrFrameTooLarge
	}
	return resp, nil
}

// undoPull requeues a pulled message whose response frame could not be
// written, instead of leaving it claimed until the visibility timeout.
func (s *Server) undoPull(resp []byte) {
	if msg, err := decodeMessage(resp); err == nil {
		s.broker.Nack(msg.Queue, msg.ID)
	}
}

// handleAck serves q4.ack: exactly (queue, id).
func (s *Server) handleAck(_ context.Context, payload []byte) ([]byte, error) {
	var f [2]string
	if rest, err := decodeFields(payload, f[:]); err != nil || len(rest) != 0 {
		return nil, errFrame
	}
	s.broker.Ack(f[0], f[1])
	return nil, nil
}

func (s *Server) handleReply(_ context.Context, payload []byte) ([]byte, error) {
	msg, err := decodeMessage(payload)
	if err != nil {
		return nil, err
	}
	s.broker.Reply(msg, bytes.Clone(msg.Body))
	return nil, nil
}

// Client gives remote components the Broker API over a (possibly
// netsim-shaped) connection.
type Client struct {
	rc *rpc.Client
}

// NewClient wraps an established connection to a queue Server.
func NewClient(conn net.Conn) *Client { return &Client{rc: rpc.NewClient(conn)} }

// Close tears down the connection.
func (c *Client) Close() error { return c.rc.Close() }

// Push enqueues remotely; it returns the broker-assigned message ID.
// tenant tags the fairness lane ("" = default).
func (c *Client) Push(queueName string, body []byte, replyTo, correlationID, tenant string) (string, error) {
	out, err := c.rc.Call(context.Background(), opPush, encodeFrame(body, -1, queueName, replyTo, correlationID, tenant))
	return string(out), err
}

// Pull long-polls the remote queue. ok is false on timeout. The
// message's Body aliases the response buffer, which is the caller's.
func (c *Client) Pull(queueName string, timeout time.Duration) (Message, bool, error) {
	if timeout < 0 {
		timeout = 0
	}
	// Give the RPC itself headroom beyond the poll timeout.
	ctx, cancel := context.WithTimeout(context.Background(), timeout+10*time.Second)
	defer cancel()
	out, err := c.rc.Call(ctx, opPull, encodeFrame(nil, timeout.Milliseconds(), queueName))
	if err != nil || len(out) == 0 {
		return Message{}, false, err
	}
	msg, err := decodeMessage(out)
	return msg, err == nil, err
}

// call is an op whose response carries nothing.
func (c *Client) call(op string, frame []byte) error {
	_, err := c.rc.Call(context.Background(), op, frame)
	return err
}

// Ack confirms processing of a delivered message.
func (c *Client) Ack(queueName, msgID string) error {
	return c.call(opAck, encodeFrame(nil, -1, queueName, msgID))
}

// Reply answers msg and acknowledges it in one round trip (see
// Broker.Reply): the response inherits the request's ReplyTo,
// correlation ID and tenant tag.
func (c *Client) Reply(msg Message, body []byte) error {
	return c.call(opReply, encodeMessage(msg, body))
}
