package queue

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rpc"
)

// frameOps names every decoder the transport runs on bytes from the
// wire: the four request handlers (against a live broker) and the
// client's pull-response parse. The handlers run under a dead
// connection's context so that a well-formed pull returns instead of
// parking.
func frameOps(b *Broker) map[string]func([]byte) error {
	s := NewServer(b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	handler := func(h func(context.Context, []byte) ([]byte, error)) func([]byte) error {
		return func(p []byte) error { _, err := h(ctx, p); return err }
	}
	return map[string]func([]byte) error{
		opPush:  handler(s.handlePush),
		opPull:  handler(s.handlePull),
		opAck:   handler(s.handleAck),
		opReply: handler(s.handleReply),
		"pull response": func(p []byte) error {
			_, err := decodeMessage(p)
			return err
		},
	}
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
		opAck:  encodeFrame([]byte("junk"), -1, "q", "id"),
		opPull: encodeFrame([]byte("junk"), 5, "q"),
	} {
		if err := frameOps(b)[op](frame); err == nil {
			t.Errorf("%s accepted trailing bytes", op)
		}
	}
}

// FuzzQueueFrames: no byte string makes a decoder panic or read outside
// its input, and whatever decodes re-encodes to the same message.
func FuzzQueueFrames(f *testing.F) {
	for _, frame := range malformedFrames {
		f.Add(frame)
	}
	f.Add(encodeFrame([]byte(`{"id":"t"}`), -1, "q", inboxName, "1a", "acme"))
	f.Add(encodeFrame([]byte("body"), 2, "id", "q", inboxName, "1a", "acme"))
	f.Add(encodeFrame(nil, 0, "q"))
	f.Add(encodeFrame(nil, -1, "q", "id"))
	f.Fuzz(func(t *testing.T, p []byte) {
		b := NewBroker(time.Minute) // per input: accepted pushes must not pile up
		defer b.Close()
		for _, decode := range frameOps(b) {
			decode(p) //nolint:errcheck — looking for panics, not verdicts
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
	if msg, ok, _ = c.Pull("remote", 0); !ok || msg.Attempt != 2 {
		t.Fatalf("nacked message not redelivered by a zero-timeout poll: ok=%v %+v", ok, msg.Attempt)
	}
	// Reply to a named queue: the answer is queued there and the
	// request is acked by the same call.
	if err := c.Reply(msg, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	if b.InFlight("remote") != 0 || laneLen(b, "answers", "テナント") != 1 {
		t.Fatalf("reply did not ack+push: inflight=%d answers=%d", b.InFlight("remote"), laneLen(b, "answers", "テナント"))
	}
	if _, _, err := c.Pull("remote", -time.Second); err != nil {
		t.Fatalf("negative timeout must poll, not fail: %v", err)
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
	if b.Len("dlhub.register") != 0 {
		t.Fatal("an old registration reached the broker")
	}
}

// TestFitsRequestBoundsThePull: FitsRequest's header allowance covers the
// largest header a RequestCtx message can have, and a message that does
// not fit anyway (pushed by a remote peer) is dropped at the pull rather
// than requeued to be refused forever.
func TestFitsRequestBoundsThePull(t *testing.T) {
	worst := Message{ID: NewID(), Queue: "dlhub.tasks.tm-1", ReplyTo: inboxName,
		CorrelationID: strconv.FormatUint(math.MaxUint64, 36), Tenant: "acme", Attempt: math.MaxInt32}
	if hdr := len(encodeMessage(worst, nil)); hdr > requestHeader+len(worst.Queue)+len(worst.Tenant) {
		t.Fatalf("a pull header is %d bytes, FitsRequest allows %d", hdr, requestHeader+len(worst.Queue)+len(worst.Tenant))
	}
	limit := rpc.MaxPayload("") - requestHeader - len(worst.Queue) - len(worst.Tenant)
	if !FitsRequest(worst.Queue, worst.Tenant, make([]byte, limit)) || FitsRequest(worst.Queue, worst.Tenant, make([]byte, limit+1)) {
		t.Fatal("FitsRequest is not the bound it states")
	}

	b := NewBroker(time.Hour)
	defer b.Close()
	s := NewServer(b)
	b.Push("tasks", make([]byte, rpc.MaxPayload("")), "", "", "")
	if _, err := s.handlePull(context.Background(), encodeFrame(nil, 0, "tasks")); !errors.Is(err, rpc.ErrFrameTooLarge) {
		t.Fatalf("pull of an unframeable message: %v", err)
	}
	if b.Len("tasks") != 0 || b.InFlight("tasks") != 0 {
		t.Fatalf("unframeable message kept: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
}

// TestPullDiesWithConnection: a consumer that disappears while parked
// in a long poll must stop being a waiter. Before, the waiter outlived
// the socket for the rest of its poll timeout, claimed the next task
// and wrote it into the void, stranding it for the visibility window.
func TestPullDiesWithConnection(t *testing.T) {
	b := NewBroker(time.Hour) // no redelivery rescue inside this test
	defer b.Close()
	c := startTransport(t, b)
	go c.Pull("tasks", 30*time.Second) //nolint:errcheck — fails when the client closes
	waitFor(t, time.Second, "pull to park", func() bool { return waiters(b, "tasks") == 1 })
	c.Close()
	waitFor(t, 100*time.Millisecond, "dead connection's waiter to leave", func() bool { return waiters(b, "tasks") == 0 })
	b.Push("tasks", []byte("work"), "", "", "")
	if b.Len("tasks") != 1 || b.InFlight("tasks") != 0 {
		t.Fatalf("task went to a dead consumer: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
}

// TestPullUndoneWhenUnwritable: the race the context cannot close — the
// task is claimed, then the response cannot be written — ends in a
// Nack, so the task is ready again at once.
func TestPullUndoneWhenUnwritable(t *testing.T) {
	b := NewBroker(time.Hour)
	defer b.Close()
	s := NewServer(b)
	b.Push("tasks", []byte("work"), "", "", "")
	resp, err := s.handlePull(context.Background(), encodeFrame(nil, 0, "tasks"))
	if err != nil || b.InFlight("tasks") != 1 {
		t.Fatalf("pull: err=%v inflight=%d", err, b.InFlight("tasks"))
	}
	s.undoPull(resp)
	if b.Len("tasks") != 1 || b.InFlight("tasks") != 0 {
		t.Fatalf("unwritable pull not undone: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
	// And the other half: claimed just as the connection's ctx ended.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b.Push("late", []byte("work"), "", "", "")
	if _, err := s.handlePull(ctx, encodeFrame(nil, 1000, "late")); err == nil {
		t.Fatal("pull on a dead connection returned a message")
	}
	if b.Len("late") != 1 || b.InFlight("late") != 0 {
		t.Fatalf("claim on a dead connection not returned: ready=%d inflight=%d", b.Len("late"), b.InFlight("late"))
	}
}

func waiters(b *Broker, name string) int {
	q := b.queue(name)
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.waiters.Len()
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
			msg, ok, err := consumer.Pull("slow", 2*time.Second)
			if err != nil || !ok {
				t.Errorf("delivery missing: ok=%v err=%v", ok, err)
				return
			}
			n := executions.Add(1)
			time.Sleep(150 * time.Millisecond)         // the slow executor: > visibility
			consumer.Reply(msg, []byte{'0' + byte(n)}) //nolint:errcheck
			done <- struct{}{}
		}()
	}
	reply, err := b.RequestCtx(context.Background(), "slow", []byte("task"), "acme")
	if err != nil {
		t.Fatal(err)
	}
	<-done
	<-done
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
	got := roundTripAllocs(t, b, func() (Message, bool) { return b.Pull("svc", 50*time.Millisecond) }, b.Reply)
	t.Logf("objects per request/reply in process: %.1f", got)
	if got > 16 {
		t.Errorf("in-process request/reply allocates %.1f objects, budget 16", got)
	}
}

// TestTCPRoundTripAllocs pins the same round trip with the consumer
// across loopback TCP — the shape of the benchmark's queue.tcp_roundtrip —
// at what it measures at this commit plus two: 34 objects (36 while the
// rpc server made a string of every request's method name; the JSON
// transport cost 106).
func TestTCPRoundTripAllocs(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	got := roundTripAllocs(t, b, func() (Message, bool) {
		msg, ok, _ := c.Pull("svc", 50*time.Millisecond)
		return msg, ok
	}, func(m Message, body []byte) { c.Reply(m, body) }) //nolint:errcheck
	t.Logf("objects per request/reply across loopback TCP: %.1f", got)
	if got > 34+2 {
		t.Errorf("loopback TCP request/reply allocates %.1f objects, budget %d", got, 34+2)
	}
}
