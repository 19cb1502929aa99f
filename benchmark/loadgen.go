package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"time"
)

// The load generator speaks HTTP/1.1 on a raw net.Conn: request bytes
// are encoded once, patched in place where a request needs a unique
// key, and responses are scanned for the few fields the benchmark
// checks. net/http's client would add its own allocations and
// goroutine hand-offs to every measured round trip; this keeps the
// generator's share of allocs_per_op small and constant.

// placeholder marks where a request body carries its unique key. It is
// all digits once patched, so it can sit inside a JSON string or be a
// JSON number (with a leading non-zero digit before it).
const placeholder = "###############"

// buildRequest encodes one HTTP/1.1 request. auth is the full
// Authorization header value ("" omits the header).
func buildRequest(method, path, auth string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: bench\r\n", method, path)
	if auth != "" {
		fmt.Fprintf(&b, "Authorization: %s\r\n", auth)
	}
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// patchDecimal overwrites dst with v as a zero-padded decimal.
func patchDecimal(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// uniqueKey is distinct for every (seed, client, n) a run can produce
// and fits the placeholder's 15 digits.
func uniqueKey(seed int64, client, n int) uint64 {
	return uint64(seed%10000)*100_000_000_000 + uint64(client)*10_000_000_000 + uint64(n)
}

// op is one request with what a correct response to it looks like.
type op struct {
	req []byte
	// ref carries the same body to the bare /ref handler.
	ref    []byte
	status int
	// want must occur in the response body wantCount times (at least
	// once when wantCount is 0).
	want      []byte
	wantCount int
}

var errorField = []byte(`"error":`)

// verify checks one response against the op that produced it.
func (o *op) verify(status int, body []byte) error {
	if status != o.status {
		return fmt.Errorf("status %d, want %d: %.200s", status, o.status, body)
	}
	if bytes.Contains(body, errorField) {
		return fmt.Errorf("error envelope: %.200s", body)
	}
	n := bytes.Count(body, o.want)
	if o.wantCount == 0 && n > 0 || o.wantCount > 0 && n == o.wantCount {
		return nil
	}
	return fmt.Errorf("output %q found %d times, want %d: %.200s", o.want, n, o.wantCount, body)
}

// httpConn is one persistent connection. The body slice a round trip
// returns is valid until the next round trip.
type httpConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReader(c)}, nil
}

func (h *httpConn) close() { h.c.Close() }

func (h *httpConn) do(req []byte) (status int, body []byte, err error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	status, h.buf, err = readResponse(h.br, h.buf[:0])
	return status, h.buf, err
}

// readResponse parses one HTTP/1.1 response with a Content-Length or
// chunked body, appending the body to buf.
func readResponse(br *bufio.Reader, buf []byte) (status int, body []byte, err error) {
	line, err := readLine(br)
	if err != nil {
		return 0, buf, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, buf, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, buf, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = readLine(br); err != nil {
			return 0, buf, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, buf, fmt.Errorf("bad header line %q", line)
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return 0, buf, fmt.Errorf("bad Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		for {
			if line, err = readLine(br); err != nil {
				return 0, buf, err
			}
			size, perr := strconv.ParseUint(string(line), 16, 31)
			if perr != nil {
				return 0, buf, fmt.Errorf("bad chunk size %q", line)
			}
			if size == 0 {
				break
			}
			if buf, err = readN(br, buf, int(size)); err != nil {
				return 0, buf, err
			}
			if line, err = readLine(br); err != nil || len(line) != 0 {
				return 0, buf, fmt.Errorf("chunk not terminated: %q %v", line, err)
			}
		}
		// Trailers, then the blank line that ends the message.
		for {
			if line, err = readLine(br); err != nil {
				return 0, buf, err
			}
			if len(line) == 0 {
				return status, buf, nil
			}
		}
	case length >= 0:
		buf, err = readN(br, buf, length)
		return status, buf, err
	default:
		return 0, buf, errors.New("response has neither Content-Length nor chunked encoding")
	}
}

// readLine returns one CRLF-terminated line without its terminator. The
// slice is valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readN appends exactly n bytes from br to buf.
func readN(br *bufio.Reader, buf []byte, n int) ([]byte, error) {
	start := len(buf)
	if cap(buf)-start < n {
		grown := make([]byte, start, start+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:start+n]
	if _, err := io.ReadFull(br, buf[start:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:start], err
	}
	return buf, nil
}

// jsonInt returns the integer that follows `"key":` in body, or 0.
func jsonInt(body []byte, key string) int64 {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0
	}
	i += len(key) + 3
	j := i
	for j < len(body) && (body[j] >= '0' && body[j] <= '9' || body[j] == '-') {
		j++
	}
	v, _ := strconv.ParseInt(string(body[i:j]), 10, 64)
	return v
}

// jsonString returns the string that follows `"key":"` in body, or "".
// The benchmark only reads identifiers, which carry no escapes.
func jsonString(body []byte, key string) string {
	i := bytes.Index(body, []byte(`"`+key+`":"`))
	if i < 0 {
		return ""
	}
	i += len(key) + 4
	j := bytes.IndexByte(body[i:], '"')
	if j < 0 {
		return ""
	}
	return string(body[i : i+j])
}

// refReply is what the bare reference handler answers.
var refReply = []byte(`{"data":{"status":"ok"},"request_id":"0000000000000000"}` + "\n")

// sample is the outcome of one client's closed loop.
type sample struct {
	reqNs, refNs []int64
	failed       int
	firstErr     error
}

// source yields a client's next op. The op it returns is valid until
// the next call.
type source func() *op

// runClient drives one closed loop on its own connection until stop
// says so. One request in every refEvery, at a place drawn from refs, is
// preceded by a timed reference call carrying the same body. The place
// is random because two clients on a fixed cycle lock into a phase, and
// which phase a run falls into then moves its ratios; the number is
// fixed because the reference's share of allocs_per_op must be.
// observe, if set, sees each DLHub response.
func runClient(addr string, next source, refs *rand.Rand, stop func(done int, elapsed time.Duration) bool, observe func(o *op, start, end time.Time, body []byte)) (sample, error) {
	const refEvery = 4
	var s sample
	conn, err := dialHTTP(addr)
	if err != nil {
		return s, err
	}
	defer conn.close()
	begin, refAt := time.Now(), 0
	for n := 0; !stop(n, time.Since(begin)); n++ {
		o := next()
		if n%refEvery == 0 {
			refAt = refs.Intn(refEvery)
		}
		// The first request always has one, so no sample is without.
		if n == 0 || n%refEvery == refAt {
			t0 := time.Now()
			status, body, err := conn.do(o.ref)
			d := time.Since(t0)
			if err != nil {
				return s, fmt.Errorf("reference call: %w", err)
			}
			if status != 200 || !bytes.Equal(body, refReply) {
				return s, fmt.Errorf("reference call answered %d %q", status, body)
			}
			s.refNs = append(s.refNs, int64(d))
		}
		t0 := time.Now()
		status, body, err := conn.do(o.req)
		t1 := time.Now()
		if err != nil {
			return s, fmt.Errorf("request %d: %w", n, err)
		}
		s.reqNs = append(s.reqNs, int64(t1.Sub(t0)))
		if err := o.verify(status, body); err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("request %d: %w", n, err)
			}
		}
		if observe != nil {
			observe(o, t0, t1, body)
		}
	}
	return s, nil
}
