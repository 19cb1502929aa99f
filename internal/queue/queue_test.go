package queue

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// request is RequestCtx under a flat timeout; ok is false when it passed
// without a reply.
func request(b *Broker, queueName string, body []byte, timeout time.Duration) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	reply, err := b.RequestCtx(ctx, queueName, body, "")
	return reply, err == nil
}

func TestPushPull(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	id := b.Push("tasks", []byte("work"), "", "", "")
	if id == "" {
		t.Fatal("Push should return an ID")
	}
	msg, ok := b.Pull("tasks", 0)
	if !ok {
		t.Fatal("Pull should find the message")
	}
	if string(msg.Body) != "work" || msg.ID != id || msg.Attempt != 1 {
		t.Fatalf("wrong message: %+v", msg)
	}
	if !b.Ack("tasks", msg.ID) {
		t.Fatal("Ack should succeed")
	}
}

func TestPullTimeout(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	start := time.Now()
	_, ok := b.Pull("empty", 50*time.Millisecond)
	if ok {
		t.Fatal("Pull on empty queue should time out")
	}
	if time.Since(start) < 45*time.Millisecond {
		t.Fatal("Pull returned before timeout")
	}
}

func TestPullWakesWaiter(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	done := make(chan Message, 1)
	go func() {
		msg, ok := b.Pull("tasks", 2*time.Second)
		if ok {
			done <- msg
		}
	}()
	time.Sleep(20 * time.Millisecond)
	b.Push("tasks", []byte("late"), "", "", "")
	select {
	case msg := <-done:
		if string(msg.Body) != "late" {
			t.Fatalf("wrong body %q", msg.Body)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken")
	}
}

func TestVisibilityTimeoutRedelivers(t *testing.T) {
	b := NewBroker(50 * time.Millisecond)
	defer b.Close()
	b.Push("tasks", []byte("flaky"), "", "", "")
	msg, ok := b.Pull("tasks", 0)
	if !ok {
		t.Fatal("first delivery missing")
	}
	// Do not ack; expect redelivery.
	msg2, ok := b.Pull("tasks", time.Second)
	if !ok {
		t.Fatal("message was not redelivered")
	}
	if msg2.ID != msg.ID {
		t.Fatal("redelivered message has different ID")
	}
	if msg2.Attempt != 2 {
		t.Fatalf("attempt should be 2, got %d", msg2.Attempt)
	}
	b.Ack("tasks", msg2.ID)
	if _, ok := b.Pull("tasks", 100*time.Millisecond); ok {
		t.Fatal("acked message should not be redelivered")
	}
}

// TestLateReplyDropsRedeliveredCopy: a consumer that answers after the
// visibility timeout finds its message back on the ready lane, not in
// flight. Its reply answers the requester, so the queued copy must go
// with it instead of running again for nobody.
func TestLateReplyDropsRedeliveredCopy(t *testing.T) {
	b := NewBroker(20 * time.Millisecond)
	defer b.Close()
	b.Push("tasks", []byte("slow"), "", "", "")
	msg, ok := b.Pull("tasks", 0)
	if !ok {
		t.Fatal("delivery missing")
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Len("tasks") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("message was never put back on the ready lane")
		}
		time.Sleep(time.Millisecond)
	}
	b.Reply(msg, []byte("done"))
	if n := b.Len("tasks") + b.InFlight("tasks"); n != 0 {
		t.Fatalf("answered task still queued: %d", n)
	}
}

func TestNackImmediateRequeue(t *testing.T) {
	b := NewBroker(time.Hour)
	defer b.Close()
	b.Push("tasks", []byte("retry-me"), "", "", "")
	msg, _ := b.Pull("tasks", 0)
	if !b.Nack("tasks", msg.ID) {
		t.Fatal("Nack should succeed")
	}
	msg2, ok := b.Pull("tasks", 0)
	if !ok || string(msg2.Body) != "retry-me" {
		t.Fatal("nacked message should be immediately available")
	}
}

func TestAckUnknown(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	if b.Ack("tasks", "nope") {
		t.Fatal("Ack of unknown message should be false")
	}
	if b.Nack("tasks", "nope") {
		t.Fatal("Nack of unknown message should be false")
	}
}

func TestFIFOOrdering(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	for i := 0; i < 20; i++ {
		b.Push("tasks", []byte{byte(i)}, "", "", "")
	}
	for i := 0; i < 20; i++ {
		msg, ok := b.Pull("tasks", 0)
		if !ok || msg.Body[0] != byte(i) {
			t.Fatalf("FIFO violated at %d: %+v", i, msg)
		}
		b.Ack("tasks", msg.ID)
	}
}

func TestRequestReply(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	go func() {
		msg, ok := b.Pull("svc", 2*time.Second)
		if !ok {
			return
		}
		b.Reply(msg, append([]byte("echo:"), msg.Body...))
	}()
	out, ok := request(b, "svc", []byte("hi"), 2*time.Second)
	if !ok {
		t.Fatal("Request timed out")
	}
	if string(out) != "echo:hi" {
		t.Fatalf("wrong reply %q", out)
	}
}

func TestRequestTimeout(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	if _, ok := request(b, "nobody-home", []byte("x"), 50*time.Millisecond); ok {
		t.Fatal("Request with no consumer should time out")
	}
}

// Property: every pushed message is eventually delivered exactly once
// when consumers ack promptly (at-least-once collapses to exactly-once
// without failures).
func TestAllMessagesDelivered(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	const n = 200
	const consumers = 8
	seen := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, ok := b.Pull("bulk", 200*time.Millisecond)
				if !ok {
					return
				}
				mu.Lock()
				seen[string(msg.Body)]++
				mu.Unlock()
				b.Ack("bulk", msg.ID)
			}
		}()
	}
	for i := 0; i < n; i++ {
		b.Push("bulk", []byte(fmt.Sprintf("m%d", i)), "", "", "")
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != 1 {
			t.Fatalf("message %s delivered %d times", k, v)
		}
	}
}

func TestQueueIsolation(t *testing.T) {
	b := NewBroker(time.Second)
	defer b.Close()
	b.Push("a", []byte("for-a"), "", "", "")
	if _, ok := b.Pull("b", 0); ok {
		t.Fatal("queue b should be empty")
	}
	if msg, ok := b.Pull("a", 0); !ok || string(msg.Body) != "for-a" {
		t.Fatal("queue a should hold its message")
	}
}

func TestLenAndInFlight(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	b.Push("q", []byte("1"), "", "", "")
	b.Push("q", []byte("2"), "", "", "")
	if b.Len("q") != 2 || b.InFlight("q") != 0 {
		t.Fatalf("want 2 ready/0 inflight, got %d/%d", b.Len("q"), b.InFlight("q"))
	}
	msg, _ := b.Pull("q", 0)
	if b.Len("q") != 1 || b.InFlight("q") != 1 {
		t.Fatalf("want 1 ready/1 inflight, got %d/%d", b.Len("q"), b.InFlight("q"))
	}
	b.Ack("q", msg.ID)
	if b.InFlight("q") != 0 {
		t.Fatal("ack should clear inflight")
	}
}

func TestNewIDUnique(t *testing.T) {
	f := func(_ int) bool { return NewID() != NewID() }
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- transport tests ---------------------------------------------------

func startTransport(t testing.TB, b *Broker) *Client {
	t.Helper()
	srv := NewServer(b)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTransportPushPullAck(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)

	id, err := c.Push("remote", []byte("payload"), "", "", "")
	if err != nil || id == "" {
		t.Fatalf("push failed: %v", err)
	}
	msg, ok, err := c.Pull("remote", time.Second)
	if err != nil || !ok {
		t.Fatalf("pull failed: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(msg.Body, []byte("payload")) {
		t.Fatalf("wrong body %q", msg.Body)
	}
	if err := c.Ack("remote", msg.ID); err != nil {
		t.Fatal(err)
	}
	if b.InFlight("remote") != 0 {
		t.Fatal("remote ack not applied")
	}
}

// TestTransportRequestReply is the deployed shape: the requester calls
// the broker in process (the MS), the consumer pulls and replies over
// the transport (a TM). One q4.reply both answers and acks.
func TestTransportRequestReply(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	consumer := startTransport(t, b)
	go func() {
		msg, ok, err := consumer.Pull("svc", 2*time.Second)
		if err != nil || !ok {
			return
		}
		consumer.Reply(msg, append([]byte("pong:"), msg.Body...)) //nolint:errcheck
	}()

	out, ok := request(b, "svc", []byte("ping"), 2*time.Second)
	if !ok || string(out) != "pong:ping" {
		t.Fatalf("request failed: ok=%v reply=%q", ok, out)
	}
	if n := b.PendingRequests(); n != 0 {
		t.Fatalf("inbox holds %d requests after completion, want 0", n)
	}
	if n := b.InFlight("svc"); n != 0 {
		t.Fatalf("reply did not ack the request: %d in flight", n)
	}
}

func TestTransportPullTimeout(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	c := startTransport(t, b)
	_, ok, err := c.Pull("empty", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("pull on empty remote queue should time out")
	}
}

// TestRequestCleansReplyQueue: a completed request must not leave its
// inbox slot behind in the broker (the map would otherwise grow by one
// entry per request, forever).
func TestRequestCleansReplyQueue(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		msg, ok := b.Pull("work", 2*time.Second)
		if !ok {
			t.Error("no request arrived")
			return
		}
		b.Reply(msg, []byte("pong"))
	}()
	if _, ok := request(b, "work", []byte("ping"), 2*time.Second); !ok {
		t.Fatal("request failed")
	}
	<-done
	if n := b.PendingRequests(); n != 0 {
		t.Fatalf("inbox slot leaked: %d pending requests, want 0", n)
	}
}

// TestCanceledRequestReplyGC: a request canceled after its task was
// pulled releases its inbox slot at once; the late reply finds no
// waiter and is counted and dropped, not stored.
func TestCanceledRequestReplyGC(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := b.RequestCtx(ctx, "work", []byte("ping"), "")
		errCh <- err
	}()
	msg, ok := b.Pull("work", 2*time.Second) // consumer claims the task
	if !ok {
		t.Fatal("no request arrived")
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := b.PendingRequests(); n != 0 {
		t.Fatalf("canceled request still holds %d inbox slots", n)
	}
	b.Reply(msg, []byte("too late"))
	if n := b.OrphanReplies(); n != 1 {
		t.Fatalf("late reply not counted as orphan: %d", n)
	}
	if n := b.InFlight("work"); n != 0 {
		t.Fatalf("late reply must still ack its task: %d in flight", n)
	}
}

// TestRequestCtxUnboundedContext: a ctx with neither deadline nor
// cancel must wait for the reply, not fail immediately.
func TestRequestCtxUnboundedContext(t *testing.T) {
	b := NewBroker(time.Minute)
	defer b.Close()
	go func() {
		msg, ok := b.Pull("work", 2*time.Second)
		if ok {
			time.Sleep(50 * time.Millisecond)
			b.Reply(msg, []byte("pong"))
		}
	}()
	reply, err := b.RequestCtx(context.Background(), "work", []byte("ping"), "")
	if err != nil || string(reply) != "pong" {
		t.Fatalf("unbounded RequestCtx: %q %v", reply, err)
	}
}

// TestPurge: purging a queue withdraws ready AND claimed-but-unacked
// messages (the dead-consumer cleanup), leaves parked consumers alone,
// and prevents the visibility sweeper from resurrecting claimed tasks.
func TestPurge(t *testing.T) {
	b := NewBroker(50 * time.Millisecond)
	defer b.Close()
	b.Push("tasks", []byte("claimed"), "", "", "")
	b.Push("tasks", []byte("ready-1"), "", "", "")
	b.Push("tasks", []byte("ready-2"), "", "", "")
	if _, ok := b.Pull("tasks", time.Second); !ok { // claim one, never ack
		t.Fatal("no message to claim")
	}
	if n := b.Purge("tasks"); n != 3 {
		t.Fatalf("purged %d, want 3 (1 claimed + 2 ready)", n)
	}
	if b.Len("tasks") != 0 || b.InFlight("tasks") != 0 {
		t.Fatalf("queue not empty after purge: ready=%d inflight=%d", b.Len("tasks"), b.InFlight("tasks"))
	}
	// The claimed message's visibility timeout must NOT redeliver it.
	time.Sleep(120 * time.Millisecond)
	if b.Len("tasks") != 0 {
		t.Fatal("purged claimed message was redelivered by the sweeper")
	}
	// The queue still works for new traffic.
	b.Push("tasks", []byte("fresh"), "", "", "")
	if msg, ok := b.Pull("tasks", time.Second); !ok || string(msg.Body) != "fresh" {
		t.Fatalf("post-purge delivery broken: %v %v", msg, ok)
	}
}
