package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/queue"
	"repro/internal/rpc"
	"repro/internal/servable"
	"repro/internal/taskmanager"
)

// The payload path: a request's input is bytes from the HTTP body (or
// from the in-process door's one marshal) to the executor, and a result's
// output is bytes from the executor to the HTTP response. These tests put
// a real Task Manager behind the service with an executor that records
// what it is handed.

// recordingExecutor keeps every input it is invoked with and answers
// "ok" — or, with echo on, the input's own bytes, the way an executor
// hands on what a pod encoded. With keep off it is the discard executor
// of the allocation guards.
type recordingExecutor struct {
	keep, echo bool
	mu         sync.Mutex
	got        []any
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
	if e.echo {
		return executor.Result{Output: input, InferenceMicros: 1}, nil
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
	return ms, payloadSite(t, ms, "tm-1", "noop", ex)
}

// payloadSite adds a real in-process Task Manager tmID whose only
// executor is ex, and publishes a noop-schema servable under name,
// deployed there.
func payloadSite(t testing.TB, ms *core.Service, tmID, name string, ex executor.Executor) string {
	t.Helper()
	before := len(ms.TaskManagers())
	tm, err := taskmanager.New(taskmanager.Config{
		ID:        tmID,
		Queue:     taskmanager.BrokerAdapter{B: ms.Broker()},
		Executors: map[string]executor.Executor{"parsl": ex},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tm.Close)
	if err := ms.WaitForTM(before+1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pkg := servable.NoopPackage()
	pkg.Doc.Publication.Name = name
	id, err := ms.Publish(ctx, core.Anonymous, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.DeployTo(ctx, core.Anonymous, id, 1, "", tmID); err != nil {
		t.Fatal(err)
	}
	return id
}

// outValue decodes a result's payload — the service holds it as the
// bytes the servable's host encoded — for a test that wants the value.
func outValue(t testing.TB, raw json.RawMessage) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("payload is not JSON: %v: %q", err, raw)
	}
	return v
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
		// input: the same bytes, compacted by the door.
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

// TestOutputBytesReachClient is the table above turned round: what the
// servable's host encoded is what the client reads, byte for byte — on
// the miss, on every hit after it, inside a batch's outputs and as the
// next pipeline step's input. The executors echo their input, so a row's
// value is both. (While the reply's output was decoded to a Go value and
// encoded again at every hop, 9007199254740993 came back as
// 9007199254740992, 1.0 as 1, [2.50] as [2.5] and 1e400 as a 400.)
func TestOutputBytesReachClient(t *testing.T) {
	ex1 := &recordingExecutor{keep: true, echo: true}
	ex2 := &recordingExecutor{keep: true, echo: true}
	ms, id := payloadStack(t, ex1)
	// The pipeline's second step lives on another site, so the service
	// chains the steps itself (no one Task Manager hosts both).
	step2 := payloadSite(t, ms, "tm-2", "echo2", ex2)
	pipe, err := ms.Publish(context.Background(), core.Anonymous, &servable.Package{Doc: pipelineDoc("echo-pipe", []string{id, step2})})
	if err != nil {
		t.Fatal(err)
	}
	h := ms.Handler()

	type runData struct {
		TaskID    string          `json:"task_id"`
		Output    json.RawMessage `json:"output"`
		Outputs   json.RawMessage `json:"outputs"`
		RequestUS *int64          `json:"request_us"`
		CacheHit  bool            `json:"cache_hit"`
	}
	post := func(t *testing.T, servableID, body, wantCache string) runData {
		t.Helper()
		status, cache, env := postRun(t, h, servableID, strings.NewReader(body))
		if status != http.StatusOK || cache != wantCache {
			t.Fatalf("%s: status %d, header %q (want %q): %+v", body, status, cache, wantCache, env.Error)
		}
		var data runData
		if err := json.Unmarshal(env.Data, &data); err != nil {
			t.Fatal(err)
		}
		if data.RequestUS == nil || data.CacheHit != (wantCache == "hit") {
			t.Fatalf("%s: request_us %v, cache_hit %v beside header %q: %s", body, data.RequestUS, data.CacheHit, wantCache, env.Data)
		}
		return data
	}

	for _, row := range []struct{ name, value string }{
		{name: "integer past 2^53", value: `9007199254740993`},
		{name: "float that is an integer", value: `1.0`},
		{name: "exponent", value: `1e-7`},
		{name: "beyond float64", value: `1e400`},
		{name: "trailing zero", value: `[2.50]`},
		{name: "member order", value: `{"b":1,"a":null}`},
		{name: "non-ASCII string", value: `"é"`},
		{name: "markup", value: `"<a>"`},
		{name: "line separator", value: "\"\u2028\""},
		{name: "null", value: `null`},
	} {
		t.Run(row.name, func(t *testing.T) {
			want := row.value // the reply frame carries an output as the host wrote it
			miss := post(t, id, `{"input":`+row.value+`}`, "miss")
			if string(miss.Output) != want {
				t.Fatalf("miss: output %s, want %s", miss.Output, want)
			}
			hit := post(t, id, `{"input":`+row.value+`}`, "hit")
			if string(hit.Output) != want || hit.TaskID != miss.TaskID {
				t.Fatalf("hit: output %s of task %s, want %s of task %s", hit.Output, hit.TaskID, want, miss.TaskID)
			}

			batch := `{"inputs":[` + row.value + `,` + row.value + `]}`
			wantOutputs := `[` + want + `,` + want + `]`
			if got := post(t, id, batch, "miss"); string(got.Outputs) != wantOutputs {
				t.Fatalf("batch miss: outputs %s, want %s", got.Outputs, wantOutputs)
			}
			if got := post(t, id, batch, "hit"); string(got.Outputs) != wantOutputs {
				t.Fatalf("batch hit: outputs %s, want %s", got.Outputs, wantOutputs)
			}

			// Step 1 is the run above (a hit); step 2 is handed step 1's
			// output bytes as its input.
			ex1.take(t)
			ex2.take(t)
			if got := post(t, pipe, `{"input":`+row.value+`}`, "miss"); string(got.Output) != want {
				t.Fatalf("pipeline: output %s, want %s", got.Output, want)
			}
			if got1, got2 := ex1.take(t), ex2.take(t); len(got1) != 0 || len(got2) != 1 || got2[0] != want {
				t.Fatalf("pipeline: step 1 dispatched %q (want a hit), step 2 was handed %q, want exactly %q", got1, got2, want)
			}
			if got := post(t, pipe, `{"input":`+row.value+`}`, "hit"); string(got.Output) != want {
				t.Fatalf("pipeline hit: output %s, want %s", got.Output, want)
			}
		})
	}
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

// TestTaskOverFrameIs413: a body the door admits (at most a frame) can
// still make a task no frame can carry — the task adds its envelope, and
// the queue its header. Over the loopback TCP queue, such a run is a 413
// at once with nothing pushed, not a pull response the transport refuses
// until the task timeout makes it a 504.
func TestTaskOverFrameIs413(t *testing.T) {
	ex := &recordingExecutor{keep: true}
	ms, id := tcpStack(t, ex)

	const open, end = `{"input":"`, `"}`
	size := rpc.MaxFrameSize - 64
	body := io.MultiReader(strings.NewReader(open), io.LimitReader(fillReader('a'), int64(size-len(open)-len(end))), strings.NewReader(end))
	req := httptest.NewRequest(http.MethodPost, "/api/v2/servables/"+id+"/run", body)
	req.ContentLength = int64(size)
	rec := httptest.NewRecorder()
	start := time.Now()
	ms.Handler().ServeHTTP(rec, req)
	took := time.Since(start)
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || env.Error == nil || env.Error.Code != string(core.CodeTooLarge) {
		t.Fatalf("status %d, error %+v; want 413 payload_too_large", rec.Code, env.Error)
	}
	// Well inside the task timeout, the old answer's wait: most of the
	// time is the door's decode of 64 MiB (0.7 s on two cores; slower
	// beside other packages' tests, and 10–12 s under the race detector).
	limit := 10 * time.Second
	if raceEnabled {
		limit = 20 * time.Second
	}
	if took > limit {
		t.Fatalf("413 took %v", took)
	}
	if n := ms.Broker().Len(taskmanager.TaskQueue("tm-1")) + ms.Broker().InFlight(taskmanager.TaskQueue("tm-1")); n != 0 || len(ex.take(t)) != 0 {
		t.Fatalf("the refused task was pushed (%d queued) or ran", n)
	}
	// The site still serves.
	if _, err := ms.Run(context.Background(), core.Anonymous, id, "small", core.RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

// bigResultExecutor answers every input with a JSON string of
// rpc.MaxFrameSize bytes: a result no queue frame can carry back.
type bigResultExecutor struct {
	recordingExecutor
	calls atomic.Int32
}

func (e *bigResultExecutor) Invoke(context.Context, string, any) (executor.Result, error) {
	e.calls.Add(1)
	out := bytes.Repeat([]byte{'a'}, rpc.MaxFrameSize)
	out[0], out[len(out)-1] = '"', '"'
	return executor.Result{Output: json.RawMessage(out), InferenceMicros: 1}, nil
}

// TestResultOverFrameFailsFast: the reply to a task whose result no frame
// can carry is a short error reply, which acknowledges the task. Before,
// the reply failed before a byte left the Task Manager: the caller waited
// out the task timeout for a 504, and the task stayed claimed, to be run
// again every visibility timeout.
func TestResultOverFrameFailsFast(t *testing.T) {
	ex := &bigResultExecutor{}
	ms, id := tcpStack(t, ex)
	start := time.Now()
	status, _, env := postRun(t, ms.Handler(), id, strings.NewReader(`{"input":"x"}`))
	if status != http.StatusBadGateway || env.Error == nil || env.Error.Code != string(core.CodeTaskFailed) {
		t.Fatalf("status %d, error %+v; want 502 task_failed", status, env.Error)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("502 took %v", took)
	}
	q := taskmanager.TaskQueue("tm-1")
	waitFor(t, time.Second, func() bool { return ms.Broker().InFlight(q) == 0 })
	if n := ex.calls.Load(); n != 1 {
		t.Fatalf("the executor ran %d times, want 1", n)
	}
}

// tcpStack is a Management Service with one real Task Manager across the
// loopback TCP queue whose only executor is ex, a 30 s task timeout, and
// noop published and deployed.
func tcpStack(t *testing.T, ex executor.Executor) (*core.Service, string) {
	t.Helper()
	ms := core.New(core.Config{Registry: container.NewRegistry(), TaskTimeout: 30 * time.Second})
	t.Cleanup(ms.Close)
	qsrv := queue.NewServer(ms.Broker())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go qsrv.Serve(l) //nolint:errcheck — ends at Close
	t.Cleanup(func() { qsrv.Close() })
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	qc := queue.NewClient(conn)
	t.Cleanup(func() { qc.Close() })
	tm, err := taskmanager.New(taskmanager.Config{ID: "tm-1", Queue: qc, Executors: map[string]executor.Executor{"parsl": ex}})
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

// fillReader reads as an endless run of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// FuzzRunBody sends arbitrary bytes as a run body through Handler() to an
// in-process Task Manager whose executor echoes its input. Each body gets
// a 4xx envelope or a 200 whose outputs decode to its inputs (a 202 if it
// asked for an async run) — never a 5xx, a panic, or an answer for other
// inputs than its own. A body naming an executor the site lacks may get
// the site's answer, 502 task_failed, where the cache has none.
func FuzzRunBody(f *testing.F) {
	for _, seed := range []string{
		`{"input":"x"}`, `{"inputs":[ [1, 2.50] , {"k":"v"} ]}`, "{\"input\": {\"b\":1,\n\"a\":[1e400, \"< >\"]} }",
		`{"inputs":[]}`, `{"input":1,"inputs":[2]}`, `{"input":`, `null`, `[]`, `{"async":true,"input":1}`,
		`{"input":"a\nb","no_cache":true}`, `{"input":1,"executor":"nope"}`, `{"INPUTS":[null]}`, `{"input":"\"id\":\"x\""}`,
	} {
		f.Add([]byte(seed))
	}
	ms, id := payloadStack(f, &recordingExecutor{echo: true})
	h := ms.Handler()
	value := func(t *testing.T, raw []byte) any {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatalf("%q is not JSON: %v", raw, err)
		}
		return v
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v2/servables/"+id+"/run", bytes.NewReader(body)))
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%q: status %d, not an envelope: %q", body, rec.Code, rec.Body.Bytes())
		}
		var req core.RunRequest
		decoded := json.Unmarshal(body, &req) == nil
		switch {
		case rec.Code >= 400 && rec.Code < 500 && env.Error != nil:
			return
		case decoded && req.Async && rec.Code == http.StatusAccepted:
			return
		case decoded && req.Executor != "" && req.Executor != "parsl" &&
			rec.Code == http.StatusBadGateway && env.Error != nil && env.Error.Code == string(core.CodeTaskFailed):
			return // the site's answer; a cached input is a 200 still
		case !decoded || rec.Code != http.StatusOK:
			t.Fatalf("%q: status %d, error %+v", body, rec.Code, env.Error)
		}
		var data struct {
			Output  json.RawMessage `json:"output"`
			Outputs json.RawMessage `json:"outputs"`
		}
		if err := json.Unmarshal(env.Data, &data); err != nil {
			t.Fatal(err)
		}
		got, want := data.Output, req.Input
		if req.Inputs != nil {
			got, want = data.Outputs, json.RawMessage{'['}
			for i, in := range req.Inputs {
				if i > 0 {
					want = append(want, ',')
				}
				want = append(want, in...)
			}
			want = append(want, ']')
		} else if want == nil {
			want = json.RawMessage("null")
		}
		if g, w := value(t, got), value(t, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%q: answered %s, want %s", body, got, want)
		}
	})
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
// but a 200 the cache answered as want says ("miss": dispatched).
func runOnce(t testing.TB, h http.Handler, path string, body []byte, want string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get(core.CacheHeader) != want {
		t.Fatalf("status %d, cache %q, want %q: %s", rec.Code, rec.Header().Get(core.CacheHeader), want, rec.Body.Bytes())
	}
}

// TestRunHTTPAllocs guards the allocation bill of a run from the handler
// through an in-process Task Manager to an executor that discards its
// input: everything a request costs this side of the servable, the
// harness's request and recorder included. Each bound is what this test
// measures at this commit plus two. A 100 x 64 batch holds 6,400 numbers
// and answers 100 outputs; decoding either side to values even once costs
// thousands of objects (27,769 before inputs passed through as bytes, 834
// while the reply's outputs were still decoded and re-encoded). A cache
// hit does nothing a hit does not need — no deadline context, no task ID,
// no reflection over the stored result — so the first of those anyone
// adds back fails its row.
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
		hit   bool // the same body every time
		bound float64
	}{
		{"batch 100x64", batchBody(100, 64), false, batchAllocs + 2},
		{"single run", newSeqBody(`{"input":"k`, `"}`), false, singleRunAllocs + 2},
		{"cache hit", newSeqBody(`{"input":"h`, `"}`), true, hitAllocs + 2},
	} {
		seq, want := 0, "miss"
		run := func() {
			if !c.hit {
				seq++
			}
			runOnce(t, h, path, c.body.setSeq(seq), want)
		}
		run() // pools filled, routes learned, the hit row's entry stored
		if c.hit {
			want = "hit"
		}
		got := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.0f objects per request", c.name, got)
		if got > c.bound {
			t.Errorf("%s: %.0f objects per request, bound %.0f", c.name, got, c.bound)
		}
	}
}

// What TestRunHTTPAllocs measures at this commit (before the reply was a
// binary frame and the hop lost its per-request context, closures and
// strings: batch 502, single run 88, cache hit 34; before the task body
// carried payloads as lines: batch 613, single run 90).
const (
	batchAllocs     = 484
	singleRunAllocs = 71
	hitAllocs       = 32
)

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
		runOnce(b, h, path, body.setSeq(i+1), "miss")
	}
}

// BenchmarkRunHitHTTP is TestRunHTTPAllocs's cache hit as a benchmark:
// one body, answered from the result cache every time after the first.
func BenchmarkRunHitHTTP(b *testing.B) {
	ms, id := payloadStack(b, &recordingExecutor{})
	h := ms.Handler()
	path := "/api/v2/servables/" + id + "/run"
	body := []byte(`{"input":"hot"}`)
	runOnce(b, h, path, body, "miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, h, path, body, "hit")
	}
}

// BenchmarkRunMissHTTP is TestRunHTTPAllocs's single run as a benchmark:
// a new input every time, so each request misses the result cache, leads
// its key's call, is admitted and dispatched, and stores its result.
func BenchmarkRunMissHTTP(b *testing.B) {
	ms, id := payloadStack(b, &recordingExecutor{})
	h := ms.Handler()
	path := "/api/v2/servables/" + id + "/run"
	body := newSeqBody(`{"input":"k`, `"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, h, path, body.setSeq(i+1), "miss")
	}
}
