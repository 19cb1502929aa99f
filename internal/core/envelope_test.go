package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/taskmanager"
)

// The run route writes its envelope by hand (writeRunResult,
// finishEnvelope). These tests hold it to encoding/json: for any result
// and request ID, its bytes are valid JSON that decodes to what
// json.Marshal(Envelope{Data: res, RequestID: id}) decodes to — every
// omitempty, every escape.

// runEnvelope is the response body the run route writes for res under
// request ID id.
func runEnvelope(t testing.TB, res *RunResult, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	buf := getBuf()
	defer putBuf(buf)
	buf.WriteString(envelopeOpen)
	writeRunResult(buf, res)
	finishEnvelope(&requestScope{ResponseWriter: rec, id: id}, http.StatusOK, buf)
	if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, ct)
	}
	return rec.Body.Bytes()
}

// decodeKeepingNumbers decodes one JSON document, numbers as their text.
func decodeKeepingNumbers(t testing.TB, doc []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("not JSON: %v: %q", err, doc)
	}
	return v
}

// checkRunEnvelope compares the hand-written envelope of res with
// encoding/json's.
func checkRunEnvelope(t testing.TB, res RunResult, id string) {
	t.Helper()
	want, err := json.Marshal(Envelope{Data: res, RequestID: id})
	if err != nil {
		t.Fatalf("encoding/json refuses %+v: %v", res, err)
	}
	got := runEnvelope(t, &res, id)
	if !json.Valid(got) {
		t.Fatalf("not valid JSON: %q", got)
	}
	if g, w := decodeKeepingNumbers(t, got), decodeKeepingNumbers(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("envelope of %+v\n wrote %s\n want  %s", res, got, want)
	}
}

// fidelityOutputs are the payloads of TestOutputBytesReachClient, plus a
// few the writer must copy without looking inside.
var fidelityOutputs = []string{
	`9007199254740993`, `1.0`, `1e-7`, `1e400`, `[2.50]`, `{"b":1,"a":null}`, `"é"`, `"<a>"`, `"\u003ca\u003e"`, `null`,
	`""`, `{}`, `[]`, ` [ 1 , 2 ] `, `"a\"b\\c"`, "\" \"", `{"a":1,"a":2}`, `true`, `-0`,
}

var awkwardStrings = []string{
	"", "0123456789abcdef", "plain", `quote " backslash \ slash /`, "tab\tnewline\ncr\rbell\x07nul\x00del\x7f",
	"<script>&amp;</script>", "é ü 日本語 \U0001F600", "line\u2028para\u2029sep", "bad utf8 \xff\xfe end", "\xc3", "core: task failed: step s: boom",
}

func TestRunEnvelopeMatchesEncodingJSON(t *testing.T) {
	// The shapes the route produces.
	miss := RunResult{Reply: Reply{TaskID: "0123456789abcdef", OK: true, Output: json.RawMessage(`"hello world"`), InferenceMicros: 3, InvocationMicros: 41}, RequestMicros: 977}
	hit := markCacheHit(miss, time.Now())
	batch := RunResult{Reply: Reply{TaskID: "t", OK: true, Outputs: json.RawMessage(`["a",1.50,null]`), InvocationMicros: 1}, RequestMicros: 12}
	pipeline := RunResult{Reply: Reply{OK: true, Output: json.RawMessage(`[0.25]`), InferenceMicros: 7, InvocationMicros: 9, Steps: []taskmanager.StepStat{
		{Servable: "anonymous/s1", Version: 2, InferenceMicros: 3, InvocationMicros: 4, RequestMicros: 100, Cached: true, CacheHit: true},
		{Servable: "anonymous/s2", RequestMicros: 1},
		{Servable: `odd "name"`},
	}}, RequestMicros: 250, CacheHit: true}
	failed := RunResult{Reply: Reply{TaskID: "t", Error: "batch item 3: boom"}}
	for _, res := range []RunResult{{}, miss, hit, batch, pipeline, failed} {
		checkRunEnvelope(t, res, "rid-1")
	}
	// Every field against every awkward value, a few at a time.
	rng := rand.New(rand.NewSource(1))
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	num := func() int64 { return []int64{0, 0, 1, -1, 977, 1 << 53, -1 << 63}[rng.Intn(7)] }
	flag := func() bool { return rng.Intn(2) == 0 }
	for i := 0; i < 2000; i++ {
		res := RunResult{
			Reply: Reply{
				TaskID: pick(awkwardStrings), OK: flag(), Error: pick(awkwardStrings),
				InferenceMicros: num(), InvocationMicros: num(), Cached: flag(),
			},
			RequestMicros: num(), CacheHit: flag(),
		}
		if flag() {
			res.Output = json.RawMessage(pick(fidelityOutputs))
		}
		if flag() {
			res.Outputs = json.RawMessage("[" + pick(fidelityOutputs) + "," + pick(fidelityOutputs) + "]")
		}
		for n := rng.Intn(4); n > 0; n-- {
			res.Steps = append(res.Steps, taskmanager.StepStat{
				Servable: pick(awkwardStrings), Version: int(num() % 1000), InferenceMicros: num(), InvocationMicros: num(),
				RequestMicros: num(), Cached: flag(), CacheHit: flag(),
			})
		}
		checkRunEnvelope(t, res, "Az09._:-")
	}
}

// FuzzRunEnvelope is the property above on arbitrary field values. A
// payload that is not JSON is skipped (the service only holds payloads its
// reply decode has validated), and a request ID the door would refuse is
// replaced the way the door replaces it.
func FuzzRunEnvelope(f *testing.F) {
	for i, out := range fidelityOutputs {
		f.Add(awkwardStrings[i%len(awkwardStrings)], i%2 == 0, awkwardStrings[(i+3)%len(awkwardStrings)], []byte(out), []byte("["+out+"]"),
			int64(i), int64(-i), i%3 == 0, awkwardStrings[(i+5)%len(awkwardStrings)], i, uint8(i%4), int64(i*977), i%2 == 1, "client-rid-1")
	}
	f.Fuzz(func(t *testing.T, taskID string, ok bool, errText string, output, outputs []byte,
		inference, invocation int64, cached bool, stepName string, stepVersion int, steps uint8, requestUS int64, cacheHit bool, id string) {
		if len(output) > 0 && !json.Valid(output) || len(outputs) > 0 && !json.Valid(outputs) {
			t.Skip()
		}
		if !validRequestID(id) {
			id = queue.NewID()[:16]
		}
		res := RunResult{
			Reply: Reply{
				TaskID: taskID, OK: ok, Error: errText, Output: output, Outputs: outputs,
				InferenceMicros: inference, InvocationMicros: invocation, Cached: cached,
			},
			RequestMicros: requestUS, CacheHit: cacheHit,
		}
		for i := 0; i < int(steps%4); i++ {
			res.Steps = append(res.Steps, taskmanager.StepStat{
				Servable: stepName, Version: stepVersion * i, InferenceMicros: inference, InvocationMicros: invocation * int64(i),
				RequestMicros: requestUS, Cached: cached, CacheHit: i%2 == 0,
			})
		}
		checkRunEnvelope(t, res, id)
	})
}
