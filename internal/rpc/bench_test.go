package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"testing"
)

func startEcho(b *testing.B) *Client {
	b.Helper()
	s := NewServer()
	s.Handle("echo", func(_ context.Context, p []byte) ([]byte, error) { return p, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck
	b.Cleanup(func() { s.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkGRPCStyleCall measures the binary framed protocol round trip
// with a CIFAR-sized float tensor — the per-request wire cost of the
// Fig. 8 "gRPC" path.
func BenchmarkGRPCStyleCall(b *testing.B) {
	c := startEcho(b)
	payload := EncodeFloats(make([]float32, 32*32*3))
	ctx := context.Background()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(ctx, "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONEncodeTensor isolates the "REST" path's JSON cost for
// the same tensor: the mechanism behind the gRPC-vs-REST gap.
func BenchmarkJSONEncodeTensor(b *testing.B) {
	vec := make([]float64, 32*32*3)
	for i := range vec {
		vec[i] = float64(i) / 3072
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(vec)
		if err != nil {
			b.Fatal(err)
		}
		var back []float64
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryEncodeTensor is the binary counterpart.
func BenchmarkBinaryEncodeTensor(b *testing.B) {
	vec := make([]float32, 32*32*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFloats(EncodeFloats(vec)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentCalls(b *testing.B) {
	c := startEcho(b)
	payload := []byte("ping")
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Call(ctx, "echo", payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFrameRoundTrip isolates the framing layer itself — encode a
// frame, decode it back through the pooled server read path — so the
// buffer pool's allocs/op effect is visible without scheduler or socket
// noise. Steady state should be ~0 allocs/op for pooled-size frames.
func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := EncodeFloats(make([]float32, 32*32*3))
	f := frame{typ: frameRequest, id: 7, method: []byte("echo"), payload: payload}
	var buf bytes.Buffer
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeFrame(&buf, f); err != nil {
			b.Fatal(err)
		}
		g, err := readFramePooled(&buf)
		if err != nil {
			b.Fatal(err)
		}
		recycleFrame(&g)
	}
}
