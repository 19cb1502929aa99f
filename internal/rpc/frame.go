// Package rpc provides the two wire protocols the paper's serving
// systems compare (§V-B5): a gRPC-like binary framed RPC with persistent
// multiplexed connections (used by TensorFlow Serving's low-latency API
// and by in-cluster component links) and REST/JSON-over-HTTP helpers
// (used by TFS-REST, SageMaker and the DLHub Management Service API).
//
// The binary protocol deliberately mirrors gRPC's essential properties:
// length-prefixed frames on a long-lived connection, request/response
// multiplexing by stream id, a compact method name, and binary payloads.
// JSON/HTTP pays real parsing and base-10 float costs, so the gRPC<REST
// gap observed in Fig. 8 emerges from genuine work, not injected sleeps.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Frame types.
const (
	frameRequest  = 1
	frameResponse = 2
	frameError    = 3
)

// MaxFrameSize bounds a single frame (64 MiB) to catch corrupt lengths.
const MaxFrameSize = 64 << 20

// frameHeader is a frame's type, stream id and method length.
const frameHeader = 1 + 8 + 2

// MaxPayload is the largest payload of a frame naming method (a response: "").
func MaxPayload(method string) int { return MaxFrameSize - frameHeader - len(method) }

// ErrFrameTooLarge is returned when a frame header declares a length
// beyond MaxFrameSize.
var ErrFrameTooLarge = errors.New("rpc: frame exceeds maximum size")

// frame is the unit of exchange: 4-byte big-endian total length,
// 1-byte type, 8-byte stream id, 2-byte method length, method bytes,
// payload bytes. body, when non-nil, is the pooled buffer the method
// and payload slices alias; recycleFrame returns it to the pool.
type frame struct {
	typ     byte
	id      uint64
	method  []byte
	payload []byte
	body    *[]byte
}

// maxPooledBuf caps the size of buffers the pool retains. A rare giant
// frame (up to MaxFrameSize) must not pin megabytes in every P's pool
// shard forever, so oversized buffers are allocated fresh and dropped.
const maxPooledBuf = 1 << 20

// framePool recycles frame encode/decode buffers. Both hot paths churn
// one []byte per frame — the encoded request/response on the write
// side, the received body on the server read side — and at saturation
// that allocation dominates the transport's GC bill. Pooling holds
// steady-state allocs per round trip constant regardless of rate.
// Pointer-to-slice, per sync.Pool guidance, keeps the interface boxing
// allocation-free.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getBuf returns a pooled buffer resized to n (oversized requests fall
// back to a fresh allocation that putBuf will refuse to retain).
func getBuf(n int) *[]byte {
	bp := framePool.Get().(*[]byte)
	if cap(*bp) < n {
		if n <= maxPooledBuf {
			*bp = make([]byte, n)
		} else {
			framePool.Put(bp)
			b := make([]byte, n)
			return &b
		}
	}
	*bp = (*bp)[:n]
	return bp
}

func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	framePool.Put(bp)
}

func writeFrame(w io.Writer, f frame) error {
	if len(f.method) > 0xFFFF {
		return fmt.Errorf("rpc: method name too long (%d bytes)", len(f.method))
	}
	total := frameHeader + len(f.method) + len(f.payload)
	if total > MaxFrameSize {
		return ErrFrameTooLarge
	}
	bp := getBuf(4 + total)
	buf := *bp
	binary.BigEndian.PutUint32(buf[0:4], uint32(total))
	buf[4] = f.typ
	binary.BigEndian.PutUint64(buf[5:13], f.id)
	binary.BigEndian.PutUint16(buf[13:15], uint16(len(f.method)))
	copy(buf[15:], f.method)
	copy(buf[15+len(f.method):], f.payload)
	_, err := w.Write(buf)
	putBuf(bp)
	return err
}

// readFrame reads one frame with a freshly allocated body. The client
// read path uses it because response payloads escape to Call callers
// with no lifetime bound; recycling there would hand one caller's bytes
// to another.
func readFrame(r io.Reader) (frame, error) {
	return readFrameInto(r, false)
}

// readFramePooled reads one frame into a pooled buffer. The caller owns
// the body and must return it with recycleFrame once the method and
// payload slices are dead — the server loop does so after the response
// frame is fully written, because handlers may legally return a
// response aliasing the request payload.
func readFramePooled(r io.Reader) (frame, error) {
	return readFrameInto(r, true)
}

func readFrameInto(r io.Reader, pooled bool) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total > MaxFrameSize {
		return frame{}, ErrFrameTooLarge
	}
	if total < frameHeader {
		return frame{}, fmt.Errorf("rpc: frame too short (%d bytes)", total)
	}
	var body []byte
	var bp *[]byte
	var err error
	switch {
	case total > maxPooledBuf:
		body, err = readGrowing(r, int(total))
	case pooled:
		bp = getBuf(int(total))
		body = *bp
		_, err = io.ReadFull(r, body)
	default:
		body = make([]byte, total)
		_, err = io.ReadFull(r, body)
	}
	if err != nil {
		putBuf(bp)
		return frame{}, err
	}
	f := frame{
		typ: body[0],
		id:  binary.BigEndian.Uint64(body[1:9]),
	}
	mlen := int(binary.BigEndian.Uint16(body[9:11]))
	if 11+mlen > int(total) {
		putBuf(bp)
		return frame{}, fmt.Errorf("rpc: method length %d overruns frame", mlen)
	}
	f.method = body[11 : 11+mlen]
	f.payload = body[11+mlen:]
	f.body = bp
	return f, nil
}

// growChunk is the first buffer readGrowing reads into.
const growChunk = 64 << 10

// readGrowing reads an n-byte frame body too large for the pool into a
// buffer that doubles, from growChunk, as the bytes arrive: the queue
// port is unauthenticated, and a length header alone must not make the
// reader allocate up to MaxFrameSize.
func readGrowing(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, growChunk)
	for {
		m, err := io.ReadFull(r, body[len(body):min(cap(body), n)])
		body = body[:len(body)+m]
		if err == io.EOF && len(body) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil || len(body) == n {
			return body, err
		}
		body = slices.Grow(body, min(cap(body), n-len(body)))
	}
}

// recycleFrame returns a pooled frame body for reuse. Must only be
// called once every slice derived from the frame is dead.
func recycleFrame(f *frame) {
	if f.body == nil {
		return
	}
	bp := f.body
	f.body, f.method, f.payload = nil, nil, nil
	putBuf(bp)
}
