package netsim

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// pipePair returns both ends of a real TCP connection on loopback.
func pipePair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		server = c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestWrapPreservesData(t *testing.T) {
	c, s := pipePair(t)
	wc := Wrap(c, Profile{OneWay: time.Millisecond})
	defer wc.Close()

	msg := []byte("hello dlhub")
	go wc.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("data corrupted: %q", got)
	}
}

func TestWrapAppliesLatency(t *testing.T) {
	c, s := pipePair(t)
	delay := 20 * time.Millisecond
	wc := Wrap(c, Profile{OneWay: delay})
	defer wc.Close()

	start := time.Now()
	go wc.Write([]byte("x"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivery too fast: %v < %v", elapsed, delay)
	}
}

func TestRoundTripIsFullRTT(t *testing.T) {
	c, s := pipePair(t)
	rtt := 30 * time.Millisecond
	wc := Wrap(c, RTT(rtt, 0))
	ws := Wrap(s, RTT(rtt, 0))
	defer wc.Close()
	defer ws.Close()

	// Echo server.
	go func() {
		buf := make([]byte, 1)
		if _, err := io.ReadFull(ws, buf); err != nil {
			return
		}
		ws.Write(buf)
	}()

	start := time.Now()
	wc.Write([]byte("p"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(wc, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < rtt {
		t.Fatalf("round trip %v < configured RTT %v", elapsed, rtt)
	}
	if elapsed > rtt*3 {
		t.Fatalf("round trip %v way above configured RTT %v", elapsed, rtt)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	c, s := pipePair(t)
	// 1 MB/s: 100 KB should take >= ~100ms to serialize.
	wc := Wrap(c, Profile{Bandwidth: 1e6})
	defer wc.Close()

	payload := make([]byte, 100_000)
	start := time.Now()
	go wc.Write(payload)
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("bandwidth not enforced: 100KB at 1MB/s arrived in %v", elapsed)
	}
}

func TestOrderingPreservedUnderConcurrentWrites(t *testing.T) {
	c, s := pipePair(t)
	wc := Wrap(c, Profile{OneWay: time.Millisecond})
	defer wc.Close()

	var wg sync.WaitGroup
	const n = 50
	// Sequential writes from one goroutine must arrive in order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			wc.Write([]byte{byte(i)})
		}
	}()
	got := make([]byte, n)
	if _, err := io.ReadFull(s, got); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] != byte(i) {
			t.Fatalf("out of order at %d: got %d", i, got[i])
		}
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	c, _ := pipePair(t)
	wc := Wrap(c, Profile{})
	if err := wc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wc.Close(); err != nil {
		t.Fatalf("second close should be nil, got %v", err)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	c, _ := pipePair(t)
	wc := Wrap(c, Profile{})
	wc.Close()
	if _, err := wc.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestListenerWrapsAccepted(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(raw, Profile{OneWay: 10 * time.Millisecond})
	defer l.Close()

	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte("pong"))
	}()

	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("accepted conn not shaped")
	}
}

func TestRTTProperty(t *testing.T) {
	f := func(ms uint16) bool {
		rtt := time.Duration(ms) * time.Millisecond
		p := RTT(rtt, 0)
		return p.OneWay*2 == rtt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
