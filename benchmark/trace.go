package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/queue"
	"repro/internal/taskmanager"
)

// Tracing is outside-in: every span comes from code in this directory
// wrapped around a public seam of the program. The chain of one request
// is
//
//	client ⊃ handler ⊃ request_us ⊃ tm ⊃ invoke ⊃ inference_us
//
// where client is the generator's round trip, handler wraps
// (*core.Service).Handler, request_us / inference_us are the timings
// every reply already carries, tm is "task pulled → Reply called" seen
// by a taskmanager.QueueAPI decorator, and invoke is an
// executor.Executor decorator. A layer's self time is its span minus
// the part its children cover.

type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder collects what the interposers see while on is set.
type recorder struct {
	on atomic.Bool

	mu       sync.Mutex
	handlers map[string]span // by request ID
	pulled   map[string]open // by queue message ID
	tms      map[string]span // by task ID
	invokes  []span
	pulls    int
	empty    int
}

// open is a pulled task whose Reply has not been called yet.
type open struct {
	taskID string
	start  time.Time
}

func newRecorder() *recorder {
	return &recorder{handlers: map[string]span{}, pulled: map[string]open{}, tms: map[string]span{}}
}

// tracedHandler records one span per API request, keyed by the request
// ID the service's middleware assigns and the envelope echoes.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id := w.Header().Get("X-Request-ID")
	h.rec.mu.Lock()
	h.rec.handlers[id] = span{start, end}
	h.rec.mu.Unlock()
}

// tracedQueue sees the Task Manager's side of the broker connection.
type tracedQueue struct {
	taskmanager.QueueAPI
	rec *recorder
}

func (q tracedQueue) Pull(name string, timeout time.Duration) (queue.Message, bool, error) {
	msg, ok, err := q.QueueAPI.Pull(name, timeout)
	if !q.rec.on.Load() || err != nil {
		return msg, ok, err
	}
	now := time.Now()
	q.rec.mu.Lock()
	q.rec.pulls++
	if ok {
		q.rec.pulled[msg.ID] = open{taskID: jsonString(msg.Body, "id"), start: now}
	} else {
		q.rec.empty++
	}
	q.rec.mu.Unlock()
	return msg, ok, err
}

func (q tracedQueue) Reply(msg queue.Message, body []byte) error {
	if q.rec.on.Load() {
		now := time.Now()
		q.rec.mu.Lock()
		if o, ok := q.rec.pulled[msg.ID]; ok {
			delete(q.rec.pulled, msg.ID)
			q.rec.tms[o.taskID] = span{o.start, now}
		}
		q.rec.mu.Unlock()
	}
	return q.QueueAPI.Reply(msg, body)
}

// tracedExecutor records every Invoke.
type tracedExecutor struct {
	executor.Executor
	rec *recorder
}

func (e tracedExecutor) Invoke(ctx context.Context, id string, input any) (executor.Result, error) {
	if !e.rec.on.Load() {
		return e.Executor.Invoke(ctx, id, input)
	}
	start := time.Now()
	res, err := e.Executor.Invoke(ctx, id, input)
	end := time.Now()
	e.rec.mu.Lock()
	e.rec.invokes = append(e.rec.invokes, span{start, end})
	e.rec.mu.Unlock()
	return res, err
}

// clientSpan is what the generator saw of one request.
type clientSpan struct {
	span
	requestID, taskID                    string
	requestUs, invocationUs, inferenceUs int64
	cacheHit                             bool
}

func observeClient(into *[]clientSpan) func(o *op, start, end time.Time, body []byte) {
	return func(_ *op, start, end time.Time, body []byte) {
		*into = append(*into, clientSpan{
			span:         span{start, end},
			requestID:    jsonString(body, "request_id"),
			taskID:       jsonString(body, "task_id"),
			requestUs:    jsonInt(body, "request_us"),
			invocationUs: jsonInt(body, "invocation_us"),
			inferenceUs:  jsonInt(body, "inference_us"),
			cacheHit:     bytes.Contains(body, []byte(`"cache_hit":true`)),
		})
	}
}

// layerTimes is one request's self time per layer, in microseconds.
type layerTimes struct {
	http, core, queue, tm, exec, inference float64
	// injected is the nominal simconst sleep on this request's path.
	injected float64
}

// traceResult is the traced pass folded into per-layer numbers.
type traceResult struct {
	layers     []layerTimes
	dispatches int
	invokes    int
	// orphans counts spans whose parent is missing: a request the handler
	// wrapper never saw, a dispatched task the queue decorator never saw
	// (where it is installed), or an Invoke outside every tm span.
	orphans int
	// negative counts self times below zero (a child outlasting its
	// parent by more than clock rounding).
	negative int
}

// analyse joins the client's spans with the interposers' and computes
// self times. interposed is false on the testbed stack, whose Task
// Manager the benchmark cannot wrap: there invocation_us (TM receipt to
// executor return) stands in for both the tm and the invoke span.
func analyse(clients []clientSpan, rec *recorder, interposed bool, injectedUs float64, traceFile *bufio.Writer) traceResult {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var res traceResult
	slices.SortFunc(rec.invokes, func(a, b span) int { return a.start.Compare(b.start) })
	claimed := 0
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := func(parent, children float64) float64 {
		// request_us and friends are truncated to whole microseconds.
		if parent-children < -2 {
			res.negative++
		}
		return max(parent-children, 0)
	}
	for i, c := range clients {
		h, ok := rec.handlers[c.requestID]
		if !ok {
			res.orphans++
			continue
		}
		writeSpan(traceFile, i, "client", "", c.span)
		writeSpan(traceFile, i, "handler", "client", h)
		var lt layerTimes
		lt.http = self(us(c.dur()), us(h.dur()))
		dispatched := c.taskID != "" && !c.cacheHit
		if !dispatched {
			// Repository calls and cache hits end in core.
			lt.core = us(h.dur())
			res.layers = append(res.layers, lt)
			continue
		}
		res.dispatches++
		lt.injected = injectedUs
		request := float64(c.requestUs)
		lt.core = self(us(h.dur()), request)
		tm, covered := float64(c.invocationUs), float64(c.invocationUs)
		if interposed {
			t, ok := rec.tms[c.taskID]
			if !ok {
				res.orphans++
				continue
			}
			writeSpan(traceFile, i, "tm", "request", t)
			tm = us(t.dur())
			// Invokes are sorted by start and one request is in flight at
			// a time, so this task's are the next ones inside its tm span.
			var cover time.Duration
			var until time.Time
			for claimed < len(rec.invokes) && !rec.invokes[claimed].start.After(t.end) {
				iv := rec.invokes[claimed]
				claimed++
				if iv.start.Before(t.start) {
					res.orphans++
					continue
				}
				writeSpan(traceFile, i, "invoke", "tm", iv)
				res.invokes++
				// Union of the (possibly parallel) invoke intervals.
				if iv.start.After(until) {
					until = iv.start
				}
				if iv.end.After(until) {
					cover += iv.end.Sub(until)
					until = iv.end
				}
			}
			covered = us(cover)
		} else {
			res.invokes++
		}
		lt.queue = self(request, tm)
		lt.tm = self(tm, covered)
		// A batch sums its items' inference times; they ran in parallel.
		lt.inference = min(float64(c.inferenceUs), covered)
		lt.exec = covered - lt.inference
		res.layers = append(res.layers, lt)
	}
	res.orphans += len(rec.invokes) - claimed
	return res
}

// writeSpan appends one span to the trace file as a JSON line.
func writeSpan(w *bufio.Writer, trace int, name, parent string, s span) {
	fmt.Fprintf(w, `{"trace":%d,"span":%q,"parent":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
		trace, name, parent, s.start.UnixNano(), s.dur().Nanoseconds())
}

// openTrace creates the trace file of a workload, headed by the host
// block so a trace always says where it was recorded.
func openTrace(name string, h hostInfo) (*os.File, *bufio.Writer, error) {
	f, err := os.Create(outDir() + "/trace-" + name + ".jsonl")
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriter(f)
	head, err := json.Marshal(map[string]any{"host": h, "workload": name})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	w.Write(head) //nolint:errcheck — Flush reports the first write error
	w.WriteByte('\n')
	return f, w, nil
}
