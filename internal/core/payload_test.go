package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/rpc"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// The payload path: a request's input is bytes from the HTTP body (or
// from the in-process door's one marshal) to the executor. These tests
// put a real Task Manager behind the service with an executor that
// records what it is handed.

// recordingExecutor keeps every input it is invoked with and answers
// "ok". With keep off it is the discard executor of the allocation
// guards.
type recordingExecutor struct {
	keep bool
	mu   sync.Mutex
	got  []any
}

func (e *recordingExecutor) Name() string                        { return "recording" }
func (e *recordingExecutor) Deploy(*servable.Package, int) error { return nil }
func (e *recordingExecutor) Scale(string, int) error             { return nil }
func (e *recordingExecutor) Undeploy(string) error               { return nil }
func (e *recordingExecutor) Replicas(string) int                 { return 1 }
func (e *recordingExecutor) Close()                              {}

func (e *recordingExecutor) Invoke(_ context.Context, _ string, input any) (executor.Result, error) {
	if e.keep {
		e.mu.Lock()
		e.got = append(e.got, input)
		e.mu.Unlock()
	}
	return executor.Result{Output: "ok", InferenceMicros: 1}, nil
}

// take returns what the executor was handed since the last take, as the
// JSON text it must have been.
func (e *recordingExecutor) take(t *testing.T) []string {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.got))
	for i, in := range e.got {
		raw, ok := in.(json.RawMessage)
		if !ok {
			t.Fatalf("executor was handed a %T, want the payload's bytes", in)
		}
		out[i] = string(raw)
	}
	e.got = nil
	return out
}

// payloadStack is a Management Service with one real in-process Task
// Manager whose only executor is ex, and noop published and deployed.
func payloadStack(t testing.TB, ex executor.Executor) (*core.Service, string) {
	t.Helper()
	ms := core.New(core.Config{Registry: container.NewRegistry()})
	t.Cleanup(ms.Close)
	tm, err := taskmanager.New(taskmanager.Config{
		ID:        "tm-1",
		Queue:     taskmanager.BrokerAdapter{B: ms.Broker()},
		Executors: map[string]executor.Executor{"parsl": ex},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tm.Close)
	if err := ms.WaitForTM(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := ms.Publish(ctx, core.Anonymous, servable.NoopPackage())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Deploy(ctx, core.Anonymous, id, 1, ""); err != nil {
		t.Fatal(err)
	}
	return ms, id
}

// postRun sends body to id's run route through h and returns the status,
// the cache header and the decoded envelope.
func postRun(t testing.TB, h http.Handler, id string, body io.Reader) (int, string, envelope) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v2/servables/"+id+"/run", body))
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("not an envelope: %v: %s", err, rec.Body.Bytes())
	}
	return rec.Code, rec.Header().Get(core.CacheHeader), env
}

func TestPayloadBytesReachExecutor(t *testing.T) {
	ex := &recordingExecutor{keep: true}
	ms, id := payloadStack(t, ex)
	h := ms.Handler()
	ctx := context.Background()

	for _, row := range []struct {
		name string
		// body is the HTTP request; sent the executor's view of its
		// input: the same bytes, compacted by the task encode.
		body, sent string
		// value is the same input for the in-process door.
		value any
		// repeat marks a row whose input equals an earlier row's as
		// JSON: it must share that row's cache entry.
		repeat bool
	}{
		{"string", `{"input":"x"}`, `"x"`, "x", false},
		{"integer past 2^53", `{"input":9007199254740993}`, `9007199254740993`, json.Number("9007199254740993"), false},
		{"exponent", `{"input":1e-7}`, `1e-7`, json.Number("1e-7"), false},
		{"object", `{"input":{"b":{"d":1,"c":[2.50]},"a":null}}`, `{"b":{"d":1,"c":[2.50]},"a":null}`,
			map[string]any{"a": nil, "b": map[string]any{"c": []any{json.Number("2.50")}, "d": 1}}, false},
		{"object, other member order", `{"input":{"a":null,"b":{"c":[2.50],"d":1}}}`, `{"a":null,"b":{"c":[2.50],"d":1}}`,
			map[string]any{"b": map[string]any{"d": 1, "c": []any{json.Number("2.50")}}, "a": nil}, true},
		{"escaped string", `{"input":"\u00e9"}`, `"\u00e9"`, "é", false},
		{"the same string unescaped", `{"input":"é"}`, `"é"`, "é", true},
		{"padded array", "{\"input\" : [ 1 ,\n\t2.0, \"a b\" ] }", `[1,2.0,"a b"]`, []any{1, json.Number("2.0"), "a b"}, false},
		{"null", `{"input":null}`, `null`, nil, false},
		{"absent input", `{}`, `null`, nil, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			status, cache, env := postRun(t, h, id, strings.NewReader(row.body))
			if status != http.StatusOK {
				t.Fatalf("status %d: %+v", status, env.Error)
			}
			got := ex.take(t)
			if row.repeat {
				if cache != "hit" || len(got) != 0 {
					t.Fatalf("equal JSON must share a cache entry: header %q, executor saw %q", cache, got)
				}
			} else if cache != "miss" || len(got) != 1 || got[0] != row.sent {
				t.Fatalf("header %q, executor saw %q, want exactly %q", cache, got, row.sent)
			}

			// The in-process door: same key as the HTTP one ...
			res, err := ms.Run(ctx, core.Anonymous, id, row.value, core.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit || len(ex.take(t)) != 0 {
				t.Fatal("an in-process run of the same input must hit the entry the HTTP run stored")
			}
			// ... and, when it does dispatch, the one marshal's bytes.
			if _, err := ms.Run(ctx, core.Anonymous, id, row.value, core.RunOptions{NoCache: true}); err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(row.value)
			if got := ex.take(t); len(got) != 1 || got[0] != string(want) {
				t.Fatalf("in-process: executor saw %q, want exactly %q", got, want)
			}
		})
	}

	// A batch's inputs arrive one by one, each as sent, and the batch is
	// one cache unit keyed like the runs above.
	t.Run("batch", func(t *testing.T) {
		status, cache, env := postRun(t, h, id, strings.NewReader(`{"inputs":[ [1, 2], {"k":"v"} ,"s"]}`))
		if status != http.StatusOK || cache != "miss" {
			t.Fatalf("status %d header %q: %+v", status, cache, env.Error)
		}
		got := ex.take(t)
		seen := map[string]bool{}
		for _, g := range got {
			seen[g] = true
		}
		if len(got) != 3 || !seen[`[1,2]`] || !seen[`{"k":"v"}`] || !seen[`"s"`] {
			t.Fatalf("executor saw %q", got)
		}
		res, err := ms.RunBatch(ctx, core.Anonymous, id, []any{[]int{1, 2}, map[string]string{"k": "v"}, "s"}, core.RunOptions{})
		if err != nil || !res.CacheHit {
			t.Fatalf("in-process batch of the same inputs: hit %v err %v", res.CacheHit, err)
		}
	})
}

func TestV2RunRejectsAmbiguousInputs(t *testing.T) {
	ex := &recordingExecutor{keep: true}
	ms, id := payloadStack(t, ex)
	h := ms.Handler()
	for _, body := range []string{
		`{"inputs":[]}`,                 // present but empty: not a run on null
		`{"input":"x","inputs":["y"]}`,  // both
		`{"input":null,"inputs":["y"]}`, // both, one of them null
		`{"input":"x"} {"input":"y"}`,   // a second document after the first
		`{"input":"x"}]`,                // trailing bytes
		`{"input":`,                     // cut short
		``,                              // nothing
	} {
		status, _, env := postRun(t, h, id, strings.NewReader(body))
		if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != string(core.CodeBadRequest) {
			t.Errorf("%q: status %d, error %+v; want 400 bad_request", body, status, env.Error)
		}
	}
	// The in-process door gives the empty batch the same answer (it used
	// to dispatch an empty task).
	if _, err := ms.RunBatch(context.Background(), core.Anonymous, id, []any{}, core.RunOptions{}); !errors.Is(err, core.ErrBadRequest) {
		t.Errorf("in-process RunBatch of no inputs: %v, want bad_request", err)
	}
	if got := ex.take(t); len(got) != 0 {
		t.Fatalf("a rejected request reached the executor: %q", got)
	}
}

func TestV2BodySizeLimit(t *testing.T) {
	ex := &recordingExecutor{keep: true}
	ms, id := payloadStack(t, ex)
	h := ms.Handler()

	// A declared length over the limit is refused before the body is
	// read: the reader here would fail the test if touched.
	req := httptest.NewRequest(http.MethodPost, "/api/v2/servables/"+id+"/run", failingReader{t})
	req.ContentLength = rpc.MaxFrameSize + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Code != string(core.CodeTooLarge) {
		t.Fatalf("status %d, error %+v; want 413 payload_too_large", rec.Code, env.Error)
	}

	if got := ex.take(t); len(got) != 0 {
		t.Fatalf("an oversized request reached the executor: %q", got)
	}

	// A chunked body (no declared length) inside the limit, over a real
	// connection; rpc's own tests cover one that overflows.
	srv := httptest.NewServer(h)
	defer srv.Close()
	body := struct{ io.Reader }{strings.NewReader(`{"input": [1, 2]}`)} // hides the length from net/http
	resp, err := http.Post(srv.URL+"/api/v2/servables/"+id+"/run", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked run: status %d", resp.StatusCode)
	}
	if got := ex.take(t); len(got) != 1 || got[0] != `[1,2]` {
		t.Fatalf("chunked run: executor saw %q", got)
	}
}

type failingReader struct{ t *testing.T }

func (r failingReader) Read([]byte) (int, error) {
	r.t.Error("the body of an over-limit request was read")
	return 0, io.EOF
}

// A request body with a run of digits to overwrite (setSeq), so that a
// loop sends a different input each time without building a new body.
type seqBody struct{ body, slot []byte }

const seqDigits = "000000000"

func newSeqBody(before, after string) seqBody {
	body := []byte(before + seqDigits + after)
	return seqBody{body, body[len(before) : len(before)+len(seqDigits)]}
}

func (b seqBody) setSeq(seq int) []byte {
	for i := len(b.slot) - 1; i >= 0; i-- {
		b.slot[i] = byte('0' + seq%10)
		seq /= 10
	}
	return b.body
}

// batchBody is a run_batch request of n inputs of m floats each whose
// first number carries the sequence digits, so no batch repeats: the
// shape of the benchmark's batch-direct workload.
func batchBody(n, m int) seqBody {
	var rest bytes.Buffer
	for i := 0; i < n; i++ {
		if i > 0 {
			rest.WriteString(",[")
		}
		for j := 0; j < m; j++ {
			if i == 0 && j == 0 {
				continue
			}
			if j > 0 {
				rest.WriteByte(',')
			}
			fmt.Fprintf(&rest, "0.%06d", (i*m+j)*7919%1000000)
		}
		rest.WriteByte(']')
	}
	return newSeqBody(`{"inputs":[[1`, rest.String()+"]}")
}

// runOnce drives one request through the handler and fails on anything
// but a dispatched 200.
func runOnce(t testing.TB, h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get(core.CacheHeader) != "miss" {
		t.Fatalf("status %d, cache %q: %s", rec.Code, rec.Header().Get(core.CacheHeader), rec.Body.Bytes())
	}
}

// TestRunHTTPAllocs guards the payload path's allocation bill from the
// handler through an in-process Task Manager to an executor that
// discards its input: everything a request costs this side of the
// servable. A 100 x 64 batch holds 6,400 numbers; a path that decodes
// them to values even once costs upwards of 13,000 objects (27,769
// before payloads passed through as bytes, which decoded them twice), so
// the bound of 1,000 fails on the first decode anyone adds. The single
// run's bound is what the same test measured before that change.
func TestRunHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	ms, id := payloadStack(t, &recordingExecutor{})
	h := ms.Handler()
	path := "/api/v2/servables/" + id + "/run"
	for _, c := range []struct {
		name  string
		body  seqBody
		bound float64
	}{
		{"batch 100x64", batchBody(100, 64), 1000},
		{"single run", newSeqBody(`{"input":"k`, `"}`), singleRunAllocsBefore},
	} {
		seq := 0
		run := func() { seq++; runOnce(t, h, path, c.body.setSeq(seq)) }
		run() // pools filled, routes learned
		got := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.0f objects per request", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %.0f objects per request, bound %.0f", c.name, got, c.bound)
		}
	}
}

// BenchmarkRunBatchHTTP is TestRunHTTPAllocs's batch as a benchmark, so
// CI's bench.txt tracks its allocs/op per commit.
func BenchmarkRunBatchHTTP(b *testing.B) {
	ms, id := payloadStack(b, &recordingExecutor{})
	h := ms.Handler()
	path := "/api/v2/servables/" + id + "/run"
	body := batchBody(100, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, h, path, body.setSeq(i+1))
	}
}

// singleRunAllocsBefore is what TestRunHTTPAllocs measured at the commit
// before payloads passed through as bytes: 116 objects for a single run
// (111 after) and 27,769 for the batch (839 after).
const singleRunAllocsBefore = 116
