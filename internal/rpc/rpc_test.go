package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func startServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck
	t.Cleanup(func() { s.Close() })
	return l.Addr().String()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{typ: frameRequest, id: 42, method: []byte("predict"), payload: []byte("data")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.typ != in.typ || out.id != in.id || !bytes.Equal(out.method, in.method) || !bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint64, method string, payload []byte) bool {
		if len(method) > 1000 {
			method = method[:1000]
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{typ: frameResponse, id: id, method: []byte(method), payload: payload}); err != nil {
			return false
		}
		out, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return out.id == id && string(out.method) == method && bytes.Equal(out.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFramePoolReuse exercises the pooled decode path: a recycled
// body's buffer may be handed to the next read, so each frame's
// contents must be correct even when read after the previous frame was
// recycled, and recycling must be idempotent.
func TestFramePoolReuse(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 100+i)
		if err := writeFrame(&buf, frame{typ: frameRequest, id: uint64(i), method: []byte("m"), payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := readFramePooled(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.body == nil {
			t.Fatal("pooled read returned no pooled body")
		}
		if f.id != uint64(i) || string(f.method) != "m" || !bytes.Equal(f.payload, payload) {
			t.Fatalf("frame %d corrupted after pool reuse: %+v", i, f)
		}
		recycleFrame(&f)
		recycleFrame(&f) // second recycle is a no-op, not a double-put
		if f.body != nil || f.payload != nil {
			t.Fatal("recycleFrame must clear body and payload")
		}
	}
}

// TestFramePoolOversized verifies frames past the pool retention cap
// still round-trip (they just skip the pool).
func TestFramePoolOversized(t *testing.T) {
	payload := make([]byte, maxPooledBuf+1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{typ: frameResponse, id: 9, method: []byte("big"), payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := readFramePooled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.payload, payload) {
		t.Fatal("oversized frame corrupted")
	}
	recycleFrame(&f)
}

func TestFrameTooLarge(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, frame{payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// Corrupt header claiming a giant frame.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge on read, got %v", err)
	}
}

// TestHeaderOnlyFrameAllocatesLittle: a header declaring the largest
// frame, and then nothing, costs the reader what arrived, not what was
// declared — on both read paths.
func TestHeaderOnlyFrameAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize)
	for name, read := range map[string]func(io.Reader) (frame, error){"fresh": readFrame, "pooled": readFramePooled} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := read(bytes.NewReader(hdr[:]))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a header-only frame read without error", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("%s: a 4-byte header allocated %d bytes", name, n)
		}
	}
}

// FuzzRPCFrame: reading arbitrary bytes as frames never panics, on
// either read path, and any method, head and payload round-trip through
// writeFrame.
func FuzzRPCFrame(f *testing.F) {
	var valid bytes.Buffer
	writeFrame(&valid, frame{typ: frameRequest, id: 7, method: []byte("predict"), payload: []byte("data")}) //nolint:errcheck
	for _, seed := range [][]byte{
		valid.Bytes(),
		{0, 0, 0, 11, frameResponse, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0},
		{0, 0, 0, 11, frameError, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF}, // method overruns
		{0, 0, 0, 3, 1, 2, 3},             // shorter than the header
		{0x04, 0, 0, 0},                   // MaxFrameSize, no body
		{0x00, 0x10, 0, 1, 1, 2, 3, 4},    // past the pool, truncated
		{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0}, // too large
		{0, 0, 0, 14, framePush, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 'm', 's', 'g'},
		{0, 0, 0, 20, frameOneWay, 0, 0, 0, 0, 0, 0, 0, 3, 0, 8, 'q', '5', '.', 'r', 'e', 'p', 'l', 'y', 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, read := range []func(io.Reader) (frame, error){readFrame, readFramePooled} {
			r := bytes.NewReader(data)
			for {
				fr, err := read(r)
				if err != nil {
					break
				}
				recycleFrame(&fr)
			}
		}
		cut := 0
		if len(data) > 0 {
			cut = int(data[0]) % (len(data) + 1)
		}
		// A one-way frame's head and payload arrive as one payload.
		mid := cut + (len(data)-cut)/2
		in := frame{typ: frameOneWay, id: uint64(len(data)), method: data[:cut], head: data[cut:mid], payload: data[mid:]}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			t.Fatal(err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if out.typ != in.typ || out.id != in.id || !bytes.Equal(out.method, in.method) || !bytes.Equal(out.payload, data[cut:]) || buf.Len() != 0 {
			t.Fatalf("round trip: %+v, want %+v (%d bytes left)", out, in, buf.Len())
		}
	})
}

// TestUnframeableResponseFailsCall: a response no frame can carry is
// answered with an error frame, so the caller hears at once instead of
// waiting out its deadline.
func TestUnframeableResponseFailsCall(t *testing.T) {
	s := NewServer()
	s.Handle("big", func(context.Context, []byte) ([]byte, error) {
		return make([]byte, MaxFrameSize+1), nil
	})
	c, err := Dial(startServer(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = c.Call(ctx, "big", nil)
	var remote RemoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), ErrFrameTooLarge.Error()) {
		t.Fatalf("want the remote %q, got %v", ErrFrameTooLarge, err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Call took %v to fail", d)
	}
	// The connection still serves.
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	if out, err := c.Call(ctx, "echo", []byte("ok")); err != nil || string(out) != "ok" {
		t.Fatalf("after the refusal: %q, %v", out, err)
	}
}

// TestOneWayAndPush: one-way frames reach their handler in order on one
// stream, whose State carries over from frame to frame; the handler
// pushes back on that stream — head and body as one frame — from
// another goroutine; a one-way frame naming no one-way method closes
// the connection, since no response can tell the peer.
func TestOneWayAndPush(t *testing.T) {
	s := NewServer()
	s.HandleOneWay("count", func(st *Stream, p []byte) error {
		n, _ := st.State.(int)
		st.State = n + 1
		body := fmt.Sprintf("%s#%d", p, n+1)
		go st.Push([]byte("re:"), []byte(body)) //nolint:errcheck — the client reads it or fails
		return nil
	})
	c, err := Dial(startServer(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pushed := make(chan string, 4)
	id := c.Open(func(p []byte) { pushed <- string(p) })
	for _, p := range []string{"a", "b"} {
		if err := c.Send(id, "count", nil, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	for range 2 {
		select {
		case p := <-pushed:
			got[p] = true
		case <-time.After(5 * time.Second):
			t.Fatal("no push")
		}
	}
	if !got["re:a#1"] || !got["re:b#2"] {
		t.Fatalf("pushes = %v, want re:a#1 and re:b#2", got)
	}
	if err := c.Send(id, "nope", []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("an unknown one-way method left the connection open")
	}
}

// TestServerCloseEndsConnections: Close closes every accepted
// connection and returns only after their read loops are gone, so a
// client's next Call fails and no serveConn goroutine is left.
func TestServerCloseEndsConnections(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Server).serveConn(") {
		t.Fatalf("a connection's read loop outlived Close:\n%s", stacks)
	}
	if _, err := c.Call(ctx, "echo", []byte("x")); err == nil {
		t.Fatal("a call succeeded after the server closed")
	}
}

func TestCallEcho(t *testing.T) {
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	addr := startServer(t, s)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Call(context.Background(), "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ping" {
		t.Fatalf("echo returned %q", out)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	addr := startServer(t, NewServer())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), "nope", nil)
	var re RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("want RemoteError about unknown method, got %v", err)
	}
}

func TestCallHandlerError(t *testing.T) {
	s := NewServer()
	s.Handle("fail", func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errors.New("model exploded")
	})
	addr := startServer(t, s)
	c, _ := Dial(addr)
	defer c.Close()
	_, err := c.Call(context.Background(), "fail", nil)
	if err == nil || !strings.Contains(err.Error(), "model exploded") {
		t.Fatalf("want remote error, got %v", err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	s := NewServer()
	s.Handle("slow", func(_ context.Context, p []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return p, nil
	})
	addr := startServer(t, s)
	c, _ := Dial(addr)
	defer c.Close()

	const n = 16
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("req-%d", i)
			out, err := c.Call(context.Background(), "slow", []byte(want))
			if err != nil {
				errs[i] = err
				return
			}
			if string(out) != want {
				errs[i] = fmt.Errorf("response mismatch: %q != %q", out, want)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// If calls were serialized this would take >= 320ms.
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("calls not multiplexed: %v for %d concurrent 20ms calls", elapsed, n)
	}
}

func TestCallContextCancel(t *testing.T) {
	s := NewServer()
	s.Handle("hang", func(_ context.Context, _ []byte) ([]byte, error) {
		time.Sleep(5 * time.Second)
		return nil, nil
	})
	addr := startServer(t, s)
	c, _ := Dial(addr)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, "hang", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestClientClosePendingCallsFail(t *testing.T) {
	s := NewServer()
	s.Handle("hang", func(_ context.Context, _ []byte) ([]byte, error) {
		time.Sleep(5 * time.Second)
		return nil, nil
	})
	addr := startServer(t, s)
	c, _ := Dial(addr)

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "hang", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call should fail after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call did not return after close")
	}
}

func TestCallAfterClose(t *testing.T) {
	addr := startServer(t, NewServer())
	c, _ := Dial(addr)
	c.Close()
	if _, err := c.Call(context.Background(), "x", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("want ErrClientClosed, got %v", err)
	}
}

func TestEncodeDecodeFloats(t *testing.T) {
	in := []float32{0, 1.5, -3.25, 1e-8, 3e8}
	out, err := DecodeFloats(EncodeFloats(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length mismatch %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("element %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestDecodeFloatsCorrupt(t *testing.T) {
	if _, err := DecodeFloats([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
	// Declares 100 floats but provides none.
	bad := EncodeFloats(nil)
	bad[0] = 100
	if _, err := DecodeFloats(bad); err == nil {
		t.Fatal("length overrun should fail")
	}
}

func TestFloatsRoundTripProperty(t *testing.T) {
	f := func(in []float32) bool {
		out, err := DecodeFloats(EncodeFloats(in))
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			// NaN != NaN; compare bit patterns.
			if in[i] != out[i] && !(in[i] != in[i] && out[i] != out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRESTHelpers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			var in map[string]any
			if err := ReadJSON(r, &in); err != nil {
				WriteError(w, 400, "bad body: %v", err)
				return
			}
			WriteJSON(w, 200, map[string]any{"echo": in["msg"]})
		case "/err":
			WriteError(w, 500, "kaboom %d", 7)
		}
	}))
	defer srv.Close()

	var out map[string]any
	if err := PostJSON(srv.Client(), srv.URL+"/ok", map[string]string{"msg": "hi"}, &out); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != "hi" {
		t.Fatalf("echo = %v", out["echo"])
	}

	err := PostJSON(srv.Client(), srv.URL+"/err", map[string]string{}, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom 7") {
		t.Fatalf("want kaboom error envelope, got %v", err)
	}
}

// TestReadBodyLimit: a body over the limit is refused — by its declared
// length before anything is read, by reading one byte past the limit
// when it declares none (chunked) — and never handed on cut short.
func TestReadBodyLimit(t *testing.T) {
	const limit = 16
	request := func(body string, declared int64) *http.Request {
		// struct{io.Reader} hides the reader's length the way a chunked
		// body has none.
		r := httptest.NewRequest(http.MethodPost, "/", struct{ io.Reader }{strings.NewReader(body)})
		r.ContentLength = declared
		return r
	}
	exactly := strings.Repeat("x", limit)
	for _, c := range []struct {
		name     string
		body     string
		declared int64
		want     string
		err      error
	}{
		{"declared, inside", "hello", 5, "hello", nil},
		{"declared, at the limit", exactly, limit, exactly, nil},
		{"declared, over", exactly + "y", limit + 1, "", ErrBodyTooLarge},
		{"declared, body shorter", "hel", 5, "", io.ErrUnexpectedEOF},
		{"declared empty", "", 0, "", nil},
		{"chunked, inside", "hello", -1, "hello", nil},
		{"chunked, at the limit", exactly, -1, exactly, nil},
		{"chunked, over", exactly + "y", -1, "", ErrBodyTooLarge},
		{"chunked empty", "", -1, "", nil},
	} {
		got, err := readBody(request(c.body, c.declared), limit)
		if !errors.Is(err, c.err) || (err == nil && string(got) != c.want) {
			t.Errorf("%s: got %q, %v; want %q, %v", c.name, got, err, c.want, c.err)
		}
	}

	// The exported forms apply MaxFrameSize; an over-limit declaration
	// must be refused without touching the body.
	r := httptest.NewRequest(http.MethodPost, "/", untouchable{t})
	r.ContentLength = MaxFrameSize + 1
	if _, err := ReadBody(r); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("ReadBody: want ErrBodyTooLarge, got %v", err)
	}
	var v any
	if err := ReadJSON(r, &v); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("ReadJSON: want ErrBodyTooLarge, got %v", err)
	}
}

type untouchable struct{ t *testing.T }

func (u untouchable) Read([]byte) (int, error) {
	u.t.Error("the body of an over-limit request was read")
	return 0, io.EOF
}

func TestServerCloseUnblocksServe(t *testing.T) {
	s := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("want net.ErrClosed, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

// TestServeAfterClose: a Serve that starts after Close — its goroutine
// beaten by a quick Close — closes its listener and returns instead of
// accepting forever.
func TestServeAfterClose(t *testing.T) {
	s := NewServer()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Serve(l); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve after Close: %v, want net.ErrClosed", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after Serve returned: Accept gave %v", err)
	}
}
