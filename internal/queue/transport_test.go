package queue

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// frameOps names every decoder the transport runs on bytes from the
// wire: the request handlers and one-way handlers (against a live
// broker), the grant's parse — a well-formed grant opens a session on a
// live connection — and the client's parse of a push frame.
func frameOps(b *Broker) map[string]func([]byte) error {
	s := NewServer(b)
	oneWay := func(h rpc.OneWay) func([]byte) error {
		return func(p []byte) error { return h(&rpc.Stream{}, p) }
	}
	return map[string]func([]byte) error{
		opPush: func(p []byte) error { _, err := s.handlePush(context.Background(), p); return err },
		opAck:  func(p []byte) error { _, err := s.handleAck(context.Background(), p); return err },
		opGrant: func(p []byte) error {
			_, _, err := decodeGrant(p)
			return err
		},
		opReply: oneWay(s.handleReply),
		opNack:  oneWay(s.handleNack),
		"push frame": func(p []byte) error {
			_, err := decodeMessage(p)
			return err
		},
	}
}

// encodeMessage is a push or q5.reply frame's payload: m's header, then
// body.
func encodeMessage(m Message, body []byte) []byte {
	return append(appendHeader(nil, m), body...)
}

// malformedFrames are the shapes a corrupt or hostile peer can send:
// nothing at all, a field cut short, a length that points past the
// end, a length that overflows, a number that is missing or huge.
var malformedFrames = map[string][]byte{
	"zero fields":       {},
	"truncated length":  {0x80},
	"truncated field":   {5, 'a', 'b'},
	"over-long length":  binary.AppendUvarint(nil, 1<<40),
	"overflowed length": bytes.Repeat([]byte{0xff}, 11),
	"one field only":    {1, 'q'},
	"huge number":       append([]byte{1, 'q'}, binary.AppendUvarint(nil, 1<<62)...),
}

func TestMalformedFramesRejected(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	for op, decode := range frameOps(b) {
		for name, frame := range malformedFrames {
			if err := decode(frame); err == nil {
				t.Errorf("%s accepted a %s frame %x", op, name, frame)
			}
		}
	}
	// Ops without a body must also refuse trailing bytes.
	for op, frame := range map[string][]byte{
		opAck:   encodeFrame([]byte("junk"), -1, "q", "id"),
		opNack:  encodeFrame([]byte("junk"), -1, "q", "id"),
		opGrant: encodeFrame([]byte("junk"), 5, "q"),
	} {
		if err := frameOps(b)[op](frame); err == nil {
			t.Errorf("%s accepted trailing bytes", op)
		}
	}
	if err := frameOps(b)[opGrant](encodeFrame(nil, 0, "q")); err == nil {
		t.Error("a grant of no credit was accepted")
	}
}

// FuzzQueueFrames: no byte string makes a decoder panic or read outside
// its input, and whatever decodes re-encodes to the same message or
// grant.
func FuzzQueueFrames(f *testing.F) {
	for _, frame := range malformedFrames {
		f.Add(frame)
	}
	f.Add(encodeFrame([]byte(`{"id":"t"}`), -1, "q", inboxName, "1a", "acme"))
	f.Add(encodeFrame([]byte("body"), 2, "id", "q", inboxName, "1a", "acme"))
	f.Add(encodeFrame(nil, 0, "q"))
	f.Add(encodeFrame(nil, -1, "q", "id"))
	f.Add(encodeFrame(nil, 8, "dlhub.tasks.tm-1"))                                                                                               // grant
	f.Add(encodeMessage(Message{ID: NewID(), Queue: "q", ReplyTo: inboxName, CorrelationID: "1a", Tenant: "acme", Attempt: 1}, []byte("reply"))) // push, reply
	f.Add(encodeFrame(nil, math.MaxInt32+1, "q"))                                                                                                // a credit past maxNum
	f.Fuzz(func(t *testing.T, p []byte) {
		b := NewBroker(time.Minute) // per input: accepted pushes must not pile up
		defer b.Close()
		for _, decode := range frameOps(b) {
			decode(p) //nolint:errcheck — looking for panics, not verdicts
		}
		if name, n, err := decodeGrant(p); err == nil {
			if again, m, err := decodeGrant(encodeFrame(nil, int64(n), name)); err != nil || again != name || m != n {
				t.Fatalf("re-encode changed the grant: (%q, %d) -> (%q, %d) (%v)", name, n, again, m, err)
			}
		}
		if msg, err := decodeMessage(p); err == nil {
			again, err := decodeMessage(encodeMessage(msg, msg.Body))
			if err != nil || again.ID != msg.ID || again.Tenant != msg.Tenant || again.Attempt != msg.Attempt || !bytes.Equal(again.Body, msg.Body) {
				t.Fatalf("re-encode changed the message: %+v -> %+v (%v)", msg, again, err)
			}
		}
	})
}

// TestFrameRoundTrip: a message survives the wire exactly — empty and
// 1 MiB bodies, a non-ASCII tenant, binary body bytes — and the decoded
// body aliases the frame instead of copying it.
func TestFrameRoundTrip(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, body := range [][]byte{nil, []byte("x"), big} {
		want := Message{ID: NewID(), Queue: "dlhub.tasks.tm-1", ReplyTo: inboxName, CorrelationID: "zz9", Tenant: "テナント-ß", Attempt: 3, Body: body}
		frame := encodeMessage(want, want.Body)
		got, err := decodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("body of %d bytes changed on the wire", len(body))
		}
		if len(body) > 0 && &got.Body[0] != &frame[len(frame)-len(body)] {
			t.Fatal("decoded body is a copy; it must alias the frame")
		}
		got.Body, want.Body = nil, nil
		if got.ID != want.ID || got.Queue != want.Queue || got.ReplyTo != want.ReplyTo ||
			got.CorrelationID != want.CorrelationID || got.Tenant != want.Tenant || got.Attempt != want.Attempt {
			t.Fatalf("header changed on the wire:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestTransportCarriesMessage: the same property through a real
// connection, including the tenant lane and the attempt counter.
func TestTransportCarriesMessage(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	body := bytes.Repeat([]byte{0, 0xff, '"', '\\'}, 1<<18)
	id, err := c.Push("remote", body, "answers", "corr-1", "テナント")
	if err != nil {
		t.Fatal(err)
	}
	msg, ok, err := c.Pull("remote", time.Second)
	if err != nil || !ok {
		t.Fatalf("pull: ok=%v err=%v", ok, err)
	}
	if msg.ID != id || msg.Queue != "remote" || msg.ReplyTo != "answers" || msg.CorrelationID != "corr-1" ||
		msg.Tenant != "テナント" || msg.Attempt != 1 || !bytes.Equal(msg.Body, body) {
		t.Fatalf("message changed in transit: %+v", Message{ID: msg.ID, Queue: msg.Queue, ReplyTo: msg.ReplyTo, CorrelationID: msg.CorrelationID, Tenant: msg.Tenant, Attempt: msg.Attempt})
	}
	if !b.Nack("remote", msg.ID) {
		t.Fatal("the broker does not hold the pulled message")
	}
	if msg, ok, _ = c.Pull("remote", time.Second); !ok || msg.Attempt != 2 {
		t.Fatalf("nacked message not redelivered: ok=%v %+v", ok, msg.Attempt)
	}
	// Reply to a named queue: the answer is queued there and the
	// request is acked by the same call.
	if err := c.Reply(msg, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, "the reply to ack and push", func() bool {
		return b.InFlight("remote") == 0 && laneLen(b, "answers", "テナント") == 1
	})
	if _, _, err := c.Pull("remote", -time.Second); err != nil {
		t.Fatalf("negative timeout must poll, not fail: %v", err)
	}
}

// TestPullWithoutWait: a Pull with no timeout grants as any Pull does
// and returns at once; what its credit brings is taken by a later Pull.
func TestPullWithoutWait(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	b.Push("tasks", []byte("work"), "", "", "")
	var msg Message
	waitFor(t, time.Second, "the granted push to arrive", func() bool {
		m, ok, err := c.Pull("tasks", 0)
		if err != nil {
			t.Fatal(err)
		}
		msg = m
		return ok
	})
	if string(msg.Body) != "work" || credit(b, "tasks") != 0 {
		t.Fatalf("took %q, broker holds %d credit; want the message and one credit spent", msg.Body, credit(b, "tasks"))
	}
}

// TestOldProtocolRefused: a peer still calling the JSON-era method
// names is told so; it never reaches a binary decoder.
func TestOldProtocolRefused(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	_, err := c.rc.Call(context.Background(), "queue.push", []byte(`{"queue":"q","body":"eA=="}`))
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("old method name: want unknown method, got %v", err)
	}
	// A q2 peer — a Task Manager that would read a task body as one JSON
	// document — is refused at its first call, its registration push.
	_, err = c.rc.Call(context.Background(), "q2.push", encodeFrame([]byte(`{"tm_id":"tm-old"}`), -1, "dlhub.register", "", "", ""))
	if err == nil || !strings.Contains(err.Error(), "unknown method: q2.push") {
		t.Fatalf("q2 push: want unknown method, got %v", err)
	}
	// So is a q3 peer, which would answer every task with a JSON reply.
	_, err = c.rc.Call(context.Background(), "q3.push", encodeFrame([]byte(`{"tm_id":"tm-old"}`), -1, "dlhub.register", "", "", ""))
	if err == nil || !strings.Contains(err.Error(), "unknown method: q3.push") {
		t.Fatalf("q3 push: want unknown method, got %v", err)
	}
	// And a q4 peer, which would long-poll for its tasks.
	_, err = c.rc.Call(context.Background(), "q4.push", encodeFrame([]byte(`{"tm_id":"tm-old"}`), -1, "dlhub.register", "", "", ""))
	if err == nil || !strings.Contains(err.Error(), "unknown method: q4.push") {
		t.Fatalf("q4 push: want unknown method, got %v", err)
	}
	if b.Len("dlhub.register") != 0 {
		t.Fatal("an old registration reached the broker")
	}
}

// TestFitsRequestBoundsThePull: FitsRequest's header allowance covers the
// largest header a RequestCtx message can have, and a message that does
// not fit anyway (pushed by a remote peer) is dropped at the push rather
// than requeued to be refused forever; the session keeps its credit.
func TestFitsRequestBoundsThePull(t *testing.T) {
	worst := Message{ID: NewID(), Queue: "dlhub.tasks.tm-1", ReplyTo: inboxName,
		CorrelationID: strconv.FormatUint(math.MaxUint64, 36), Tenant: "acme", Attempt: math.MaxInt32}
	if hdr := len(encodeMessage(worst, nil)); hdr > requestHeader+len(worst.Queue)+len(worst.Tenant) {
		t.Fatalf("a push header is %d bytes, FitsRequest allows %d", hdr, requestHeader+len(worst.Queue)+len(worst.Tenant))
	}
	limit := rpc.MaxPayload("") - requestHeader - len(worst.Queue) - len(worst.Tenant)
	if !FitsRequest(worst.Queue, worst.Tenant, make([]byte, limit)) || FitsRequest(worst.Queue, worst.Tenant, make([]byte, limit+1)) {
		t.Fatal("FitsRequest is not the bound it states")
	}

	b := NewBroker(time.Hour)
	defer b.Close()
	c := startTransport(t, b)
	b.Push("tasks", make([]byte, rpc.MaxPayload("")), "", "", "")
	if _, ok, err := c.Pull("tasks", 200*time.Millisecond); ok || err != nil {
		t.Fatalf("pull of an unframeable message: ok=%v err=%v", ok, err)
	}
	if b.Len("tasks") != 0 || b.InFlight("tasks") != 0 {
		t.Fatalf("unframeable message kept: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
	if n := credit(b, "tasks"); n != 1 {
		t.Fatalf("session credit = %d after the refused push, want 1", n)
	}
	b.Push("tasks", []byte("small"), "", "", "")
	if msg, ok, err := c.Pull("tasks", time.Second); !ok || err != nil || string(msg.Body) != "small" {
		t.Fatalf("next message: %q ok=%v err=%v", msg.Body, ok, err)
	}
}

// TestPullDiesWithConnection: a consumer that disappears holding credit
// must stop being one at once: its credit is withdrawn, and the next
// task stays ready instead of being pushed into a dead socket and
// stranded for the visibility window.
func TestPullDiesWithConnection(t *testing.T) {
	b := NewBroker(time.Hour) // no redelivery rescue inside this test
	defer b.Close()
	c := startTransport(t, b)
	go c.Pull("tasks", 30*time.Second) //nolint:errcheck — fails when the client closes
	waitFor(t, time.Second, "the grant to arrive", func() bool { return credit(b, "tasks") == 1 })
	c.Close()
	select {
	case <-c.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed with the connection")
	}
	waitFor(t, 100*time.Millisecond, "dead session's credit to go", func() bool { return credit(b, "tasks") == 0 })
	b.Push("tasks", []byte("work"), "", "", "")
	if b.Len("tasks") != 1 || b.InFlight("tasks") != 0 {
		t.Fatalf("task went to a dead consumer: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
}

// TestPullUndoneWhenUnwritable: a task claimed for a session whose push
// frame cannot be written is ready again at once and the session is
// withdrawn, so the task goes to the next consumer with credit.
func TestPullUndoneWhenUnwritable(t *testing.T) {
	b := NewBroker(time.Hour)
	defer b.Close()
	c := startWrapped(t, b, func(conn net.Conn) net.Conn { return pushFails{conn} }, nil)
	if _, ok, err := c.Pull("tasks", time.Millisecond); ok || err != nil { // grants one credit
		t.Fatalf("pull from an empty queue: ok=%v err=%v", ok, err)
	}
	waitFor(t, time.Second, "the grant to arrive", func() bool { return credit(b, "tasks") == 1 })
	b.Push("tasks", []byte("work"), "", "", "")
	waitFor(t, time.Second, "the unwritten push to be undone", func() bool { return b.Len("tasks") == 1 })
	if b.InFlight("tasks") != 0 || credit(b, "tasks") != 0 {
		t.Fatalf("unwritable push not undone: inflight=%d credit=%d", b.InFlight("tasks"), credit(b, "tasks"))
	}
	if consumers, _, pushes, failures := b.ConsumerStats(); consumers != 0 || pushes != 0 || failures != 1 {
		t.Fatalf("consumers=%d pushes=%d failures=%d, want the session withdrawn after one failed push", consumers, pushes, failures)
	}
	if msg, ok := b.PullCtx(context.Background(), "tasks", time.Second); !ok || string(msg.Body) != "work" || msg.Attempt != 2 {
		t.Fatalf("next consumer got %+v, %v", msg, ok)
	}
}

// pushFails refuses to write push frames (frame type 4, the byte after
// the length).
type pushFails struct{ net.Conn }

func (c pushFails) Write(p []byte) (int, error) {
	if len(p) > 4 && p[4] == 4 {
		return 0, errors.New("broken pipe")
	}
	return c.Conn.Write(p)
}

// TestStalledPeerBlocksNoRequester: a session whose peer stops reading
// stalls its own pushes and nothing else. A request handed to it returns
// at its ctx's deadline, not when TCP gives up, and the broker keeps
// serving its callers.
func TestStalledPeerBlocksNoRequester(t *testing.T) {
	b := NewBroker(time.Hour)
	defer b.Close()
	c := startWrapped(t, b, nil, func(conn net.Conn) net.Conn { return &stalledConn{Conn: conn, closed: make(chan struct{})} })
	if _, ok, err := c.Pull("tasks", time.Millisecond); ok || err != nil { // grants one credit
		t.Fatalf("pull from an empty queue: ok=%v err=%v", ok, err)
	}
	waitFor(t, time.Second, "the grant to arrive", func() bool { return credit(b, "tasks") == 1 })
	body := make([]byte, 16<<20) // more than the socket buffers hold
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := b.RequestCtx(ctx, "tasks", body, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("request to a stalled session: %v, want its deadline", err)
	}
	if d := time.Since(start); d > 600*time.Millisecond {
		t.Fatalf("a 100 ms request returned after %v", d)
	}
	if b.InFlight("tasks") != 1 || b.PendingRequests() != 0 {
		t.Fatalf("inflight=%d pending=%d, want the task still claimed and no requester waiting", b.InFlight("tasks"), b.PendingRequests())
	}
	b.Push("tasks", []byte("next"), "", "", "")
	if msg, ok := b.PullCtx(context.Background(), "tasks", time.Second); !ok || string(msg.Body) != "next" {
		t.Fatalf("broker stalled behind the session: %q, %v", msg.Body, ok)
	}
}

// stalledConn never reads: its Read waits for Close.
type stalledConn struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *stalledConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stalledConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestCloseNacksUntakenPushes: a message pushed to a client that no Pull
// took — its caller gave up, timed out or canceled mid-wait, leaving its
// credit granted — is nacked when the client closes, not left claimed
// until the visibility timeout. A message a Pull did take stays claimed
// past the session's end: until its reply, the visibility timeout or
// Purge.
func TestCloseNacksUntakenPushes(t *testing.T) {
	for _, giveUp := range []struct {
		name string
		pull func(c *Client) (bool, error)
	}{
		{"timeout", func(c *Client) (bool, error) {
			_, ok, err := c.Pull("tasks", 10*time.Millisecond)
			return ok, err
		}},
		{"cancel", func(c *Client) (bool, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(10*time.Millisecond, cancel)
			_, ok, err := c.PullCtx(ctx, "tasks", time.Hour)
			return ok, err
		}},
	} {
		t.Run(giveUp.name, func(t *testing.T) {
			b := NewBroker(time.Hour)
			defer b.Close()
			c := startTransport(t, b)
			b.Push("tasks", []byte("taken"), "", "", "")
			if _, ok, err := c.Pull("tasks", time.Second); !ok || err != nil {
				t.Fatalf("pull: ok=%v err=%v", ok, err)
			}
			if ok, err := giveUp.pull(c); ok || err != nil { // grants a credit, then gives up
				t.Fatalf("gave up: ok=%v err=%v, want neither", ok, err)
			}
			b.Push("tasks", []byte("untaken"), "", "", "")
			f := c.feed("tasks")
			waitFor(t, time.Second, "the push to the idle credit", func() bool { return len(f.ready) == 1 })
			c.Close()
			waitFor(t, time.Second, "the untaken push to be nacked", func() bool { return b.Len("tasks") == 1 })
			if n := b.InFlight("tasks"); n != 1 {
				t.Fatalf("in flight after close = %d, want the taken message still claimed", n)
			}
			if msg, ok := b.PullCtx(context.Background(), "tasks", 0); !ok || string(msg.Body) != "untaken" {
				t.Fatalf("ready after close: %q, %v", msg.Body, ok)
			}
			if n := b.Purge("tasks"); n != 2 {
				t.Fatalf("purged %d, want the two claimed messages", n)
			}
		})
	}
}

// TestLookupsCreateNoQueue: acks, nacks and reads for names the broker
// has never seen add no queue to it, so a peer on the unauthenticated
// queue port cannot grow it one entry per name it makes up.
func TestLookupsCreateNoQueue(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	before := queueCount(b)
	for i := 0; i < 10_000; i++ {
		if err := c.Ack("made-up-"+strconv.Itoa(i), "id"); err != nil {
			t.Fatal(err)
		}
	}
	b.Nack("made-up", "id")
	b.Drop("made-up", "id")
	b.Purge("made-up")
	b.Len("made-up")
	b.InFlight("made-up")
	if n := queueCount(b); n != before {
		t.Fatalf("queues: %d before, %d after lookups of unknown names", before, n)
	}
}

// TestGrantsCreateFewQueues: a grant does create its queue, but a peer
// granting on stream after stream, each naming a new queue, is cut off
// at rpc.MaxStreams streams, so one connection adds at most that many.
func TestGrantsCreateFewQueues(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	before := queueCount(b)
	var err error
	for i := 0; i < 10_000 && err == nil; i++ {
		err = c.rc.Send(c.rc.Open(nil), opGrant, nil, encodeFrame(nil, 1, "made-up-"+strconv.Itoa(i)))
	}
	select {
	case <-c.rc.Done():
	case <-time.After(time.Second):
		t.Fatal("the connection outlived its stream bound")
	}
	if n := queueCount(b) - before; n > rpc.MaxStreams {
		t.Fatalf("one connection's grants added %d queues, bound %d", n, rpc.MaxStreams)
	}
}

// countingConn counts the frames written through it: each frame is one
// Write.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// TestTwoFramesPerTask: with credit established, a dispatched task costs
// exactly two frames on the consumer's connection — the push and the
// reply — and an idle connection carries none, however often its eight
// pullers give up and wait again.
func TestTwoFramesPerTask(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	var frames atomic.Int64
	count := func(conn net.Conn) net.Conn { return countingConn{conn, &frames} }
	c := startWrapped(t, b, count, count)
	stop := make(chan struct{})
	var done []<-chan struct{}
	for range 8 {
		done = append(done, echoLoop(func() (Message, bool) {
			msg, ok, _ := c.Pull("svc", 50*time.Millisecond)
			return msg, ok
		}, func(m Message, body []byte) { c.Reply(m, body) }, stop)) //nolint:errcheck
	}
	defer func() {
		close(stop)
		for _, d := range done {
			<-d
		}
	}()
	waitFor(t, 2*time.Second, "eight credits", func() bool { return credit(b, "svc") == 8 })
	const tasks = 100
	frames.Store(0)
	for i := 0; i < tasks; i++ {
		if _, ok := request(b, "svc", []byte("task"), 5*time.Second); !ok {
			t.Fatal("request failed")
		}
	}
	waitFor(t, time.Second, "the last credit to return", func() bool { return credit(b, "svc") == 8 })
	if n := frames.Load(); n != 2*tasks {
		t.Fatalf("%d frames for %d tasks, want %d", n, tasks, 2*tasks)
	}
	frames.Store(0)
	time.Sleep(2 * time.Second)
	if n := frames.Load(); n != 0 {
		t.Fatalf("an idle connection carried %d frames in 2 s", n)
	}
}

// credit sums the credit of a queue's consumers.
func credit(b *Broker, name string) int {
	_, byQueue, _, _ := b.ConsumerStats()
	return byQueue[name]
}

func queueCount(b *Broker) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.queues)
}

func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", within, what)
		}
	}
}

// TestRedeliveredTaskRepliesOnce settles at-least-once without dedupe:
// a task that outlives the visibility timeout is delivered and executed
// twice, the requester gets exactly one reply, and the second reply is
// counted as an orphan and dropped. Running twice is the contract (the
// servables are pure functions of their input); answering twice is not.
func TestRedeliveredTaskRepliesOnce(t *testing.T) {
	b := NewBroker(40 * time.Millisecond)
	defer b.Close()
	consumer := startTransport(t, b)
	var executions atomic.Int32
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			msg, ok, err := consumer.Pull("slow", 2*time.Second)
			if err != nil || !ok {
				t.Errorf("delivery missing: ok=%v err=%v", ok, err)
				return
			}
			n := executions.Add(1)
			time.Sleep(150 * time.Millisecond)         // the slow executor: > visibility
			consumer.Reply(msg, []byte{'0' + byte(n)}) //nolint:errcheck
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	reply, err := b.RequestCtx(ctx, "slow", []byte("task"), "acme")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a consumer never finished")
		}
	}
	waitFor(t, time.Second, "the second reply to arrive", func() bool { return b.OrphanReplies() == 1 })
	if n := executions.Load(); n != 2 {
		t.Fatalf("task executed %d times, want 2 (redelivery after the visibility timeout)", n)
	}
	if len(reply) != 1 || (reply[0] != '1' && reply[0] != '2') {
		t.Fatalf("requester got %q, want exactly one of the two replies", reply)
	}
	if n := b.OrphanReplies(); n != 1 {
		t.Fatalf("orphan replies = %d, want 1 (the second answer)", n)
	}
	if n := b.PendingRequests(); n != 0 {
		t.Fatalf("inbox holds %d requests, want 0", n)
	}
	if n := b.LaneDequeues()["acme"]; n != 3 { // two task deliveries + the one reply handed over
		t.Fatalf("acme dequeues = %d, want 3", n)
	}
}

// echoLoop answers every message on "svc" with its own body until stop.
func echoLoop(pull func() (Message, bool), reply func(Message, []byte), stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if msg, ok := pull(); ok {
				reply(msg, msg.Body)
			}
		}
	}()
	return done
}

// roundTripAllocs is the objects one RequestCtx on b costs while an echo
// consumer answers through pull and reply.
func roundTripAllocs(t *testing.T, b *Broker, pull func() (Message, bool), reply func(Message, []byte)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	body := []byte(`{"id":"0123456789abcdef","kind":"run","servable":"bench/noop","input":"k000000000000000"}`)
	stop := make(chan struct{})
	done := echoLoop(pull, reply, stop)
	defer func() { close(stop); <-done }()
	ctx := context.Background()
	return testing.AllocsPerRun(2000, func() {
		if _, err := b.RequestCtx(ctx, "svc", body, ""); err != nil {
			t.Error(err)
		}
	})
}

// TestRoundTripAllocs is the tier-1 guard on what this transport exists
// for: objects per dispatched request. One request/reply with the
// consumer in process costs at most 16 objects (the JSON transport it
// replaced cost 28).
func TestRoundTripAllocs(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	got := roundTripAllocs(t, b, func() (Message, bool) { return b.PullCtx(context.Background(), "svc", 50*time.Millisecond) }, b.Reply)
	t.Logf("objects per request/reply in process: %.1f", got)
	if got > 16 {
		t.Errorf("in-process request/reply allocates %.1f objects, budget 16", got)
	}
}

// TestTCPRoundTripAllocs pins the same round trip with the consumer
// across loopback TCP — the shape of the benchmark's queue.tcp_roundtrip —
// at what it measures at this commit plus two: 13 objects (34 while a
// task crossed as a long poll's response and its reply as a call; the
// JSON transport cost 106).
func TestTCPRoundTripAllocs(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	got := roundTripAllocs(t, b, func() (Message, bool) {
		msg, ok, _ := c.Pull("svc", 50*time.Millisecond)
		return msg, ok
	}, func(m Message, body []byte) { c.Reply(m, body) }) //nolint:errcheck
	t.Logf("objects per request/reply across loopback TCP: %.1f", got)
	if got > 13+2 {
		t.Errorf("loopback TCP request/reply allocates %.1f objects, budget %d", got, 13+2)
	}
}
