package queue

import (
	"context"
	"testing"
	"time"
)

func BenchmarkPushPullAck(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	body := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Push("bench", body, "", "", "")
		msg, ok := br.PullCtx(context.Background(), "bench", 0)
		if !ok {
			b.Fatal("message missing")
		}
		br.Ack("bench", msg.ID)
	}
}

func BenchmarkRequestReply(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	stop := make(chan struct{})
	done := echoLoop(func() (Message, bool) { return br.PullCtx(context.Background(), "svc", 50*time.Millisecond) }, br.Reply, stop)
	benchRequests(b, br)
	close(stop)
	<-done
}

// BenchmarkTCPRequestReply is the deployed shape — requester on the
// broker, consumer across loopback TCP — and the number to watch is
// allocs/op: it is what every dispatched run pays for the transport.
func BenchmarkTCPRequestReply(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	c := startTransport(b, br)
	stop := make(chan struct{})
	done := echoLoop(func() (Message, bool) {
		msg, ok, _ := c.Pull("svc", 50*time.Millisecond)
		return msg, ok
	}, func(m Message, body []byte) { c.Reply(m, body) }, stop) //nolint:errcheck
	benchRequests(b, br)
	close(stop)
	<-done
}

func benchRequests(b *testing.B, br *Broker) {
	body := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := request(br, "svc", body, 5*time.Second); !ok {
			b.Fatal("request timed out")
		}
	}
	b.StopTimer()
}

func BenchmarkConcurrentProducersConsumers(b *testing.B) {
	br := NewBroker(time.Minute)
	defer br.Close()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			br.Push("par", []byte("x"), "", "", "")
			if msg, ok := br.PullCtx(context.Background(), "par", time.Second); ok {
				br.Ack("par", msg.ID)
			}
		}
	})
}
