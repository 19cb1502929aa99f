package rpc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
)

// The binary tensor codec is the "gRPC" payload format: float32 vectors
// travel as raw little-endian bytes, the way TensorFlow Serving's
// PredictRequest protobuf carries tensor content. The JSON codec is the
// "REST" format: the same floats rendered base-10 inside a JSON array,
// which is genuinely slower to encode, bigger on the wire and slower to
// parse — the mechanism behind the gRPC-vs-REST gap in Fig. 8.

// EncodeFloats serializes a float32 slice with a length prefix.
func EncodeFloats(v []float32) []byte {
	buf := make([]byte, 4+4*len(v))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(v)))
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[4+4*i:], math.Float32bits(f))
	}
	return buf
}

// DecodeFloats parses a payload produced by EncodeFloats.
func DecodeFloats(p []byte) ([]float32, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rpc: float payload too short (%d bytes)", len(p))
	}
	n := binary.LittleEndian.Uint32(p[0:4])
	if int(n) > (len(p)-4)/4 {
		return nil, fmt.Errorf("rpc: float payload declares %d elements, has %d bytes", n, len(p)-4)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4+4*i:]))
	}
	return out, nil
}

// --- REST helpers -----------------------------------------------------

// WriteJSON writes v as a JSON response with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone
}

// WriteError writes a JSON error envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ErrBodyTooLarge is returned by ReadBody for a request body longer than
// MaxFrameSize.
var ErrBodyTooLarge = errors.New("rpc: request body exceeds maximum size")

// ReadBody reads a request body of at most MaxFrameSize bytes in one
// pass: into a buffer of exactly Content-Length bytes when the client
// declared one, by doubling otherwise (a chunked body). A longer body is
// refused with ErrBodyTooLarge — before a byte is read when its declared
// length already says so — never cut short.
func ReadBody(r *http.Request) ([]byte, error) { return readBody(r, MaxFrameSize) }

func readBody(r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, ErrBodyTooLarge
	}
	if r.ContentLength >= 0 {
		body := make([]byte, r.ContentLength)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err == nil && int64(len(body)) > limit {
		return nil, ErrBodyTooLarge
	}
	return body, err
}

// ReadJSON decodes a request body of at most MaxFrameSize bytes into v.
// Numbers decoded into an interface value keep their text (json.Number).
func ReadJSON(r *http.Request, v any) error {
	body, err := ReadBody(r)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	return dec.Decode(v)
}

// PostJSON issues a JSON POST with the given client and decodes the JSON
// response into out (if out is non-nil). Non-2xx responses are returned
// as errors carrying the server's error envelope when present.
func PostJSON(client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameSize))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil && env.Error != "" {
			return fmt.Errorf("http %d: %s", resp.StatusCode, env.Error)
		}
		return fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
