package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/queue"
	"repro/internal/schema"
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

// The repository's answers on the hot path (search pages, documents,
// servable views) are appended by hand too (writeAppended), and held to
// encoding/json byte for byte: they carry no payload to copy.

// checkRepoEnvelope compares the envelope a route behind endpoint writes
// for data with writeV2's, encoding/json's, byte for byte, and checks
// that writeAppended, not the fallback to writeV2, wrote it if appended
// (it must refuse a value encoding/json refuses, and a nil no route
// produces).
func checkRepoEnvelope(t testing.TB, data any, appended bool) {
	t.Helper()
	route := endpoint(new(Service), func(*http.Request, Caller, *noBody) (int, any, error) { return http.StatusOK, data, nil })
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	route(&requestScope{ResponseWriter: got, id: "rid-1"}, httptest.NewRequest(http.MethodGet, "/", nil))
	writeV2(&requestScope{ResponseWriter: want, id: "rid-1"}, http.StatusOK, data)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
		!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("envelope of %+v\n wrote %q\n want  %q", data, got.Body, want.Body)
	}
	if ok := writeAppended(&requestScope{ResponseWriter: httptest.NewRecorder(), id: "rid-1"}, http.StatusOK, data); ok != appended {
		t.Fatalf("writeAppended(%+v) = %v, want %v", data, ok, appended)
	}
}

// marshals reports whether encoding/json accepts v.
func marshals(v any) bool {
	_, err := json.Marshal(v)
	return err == nil
}

// repoValues draws the field values of repository answers.
type repoValues struct{ rng *rand.Rand }

func (v repoValues) str() string { return awkwardStrings[v.rng.Intn(len(awkwardStrings))] }

// list is nil, empty or two awkward strings: encoding/json writes the
// first as null and omits both under omitempty.
func (v repoValues) list() []string {
	switch v.rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	return []string{v.str(), v.str()}
}

func (v repoValues) strMap() map[string]string {
	if v.rng.Intn(2) == 0 {
		return []map[string]string{nil, {}}[v.rng.Intn(2)]
	}
	return map[string]string{v.str(): v.str(), v.str(): v.str()}
}

// rawValues are RawMessages as a client may publish them: encoding/json
// compacts them and escapes their HTML.
var rawValues = []string{`1`, ` { "b" : [1, 2.50], "a" : "x<y" } `, `"<b>&"`, `null`, ` [ ] `, `1e400`}

func (v repoValues) rawMap() map[string]json.RawMessage {
	if v.rng.Intn(2) == 0 {
		return []map[string]json.RawMessage{nil, {}}[v.rng.Intn(2)]
	}
	return map[string]json.RawMessage{v.str(): json.RawMessage(rawValues[v.rng.Intn(len(rawValues))]), "k": json.RawMessage(`{}`)}
}

func (v repoValues) num() int { return []int{0, 0, 1, -1, 2019, 1 << 40}[v.rng.Intn(6)] }

// publishedAt is zero (which omitempty never omits: it is a struct), in
// UTC, or in a zone with an odd offset.
func (v repoValues) publishedAt() time.Time {
	return []time.Time{{}, time.Unix(1_560_000_000, 0).UTC(),
		time.Date(2019, 5, 1, 12, 30, 0, 123_456_789, time.FixedZone("odd", -(7*3600+30*60)))}[v.rng.Intn(3)]
}

func (v repoValues) dataType() schema.DataType {
	return schema.DataType{Kind: v.str(), Shape: [][]int{nil, {}, {32, 32, -1}}[v.rng.Intn(3)], ItemKind: v.str(), Description: v.str()}
}

func (v repoValues) document() *schema.Document {
	return &schema.Document{
		ID: v.str(), Owner: v.str(), Version: v.num(), PublishedAt: v.publishedAt(),
		Publication: schema.Publication{
			Name: v.str(), Title: v.str(), Authors: v.list(), Description: v.str(), Domains: v.list(),
			Identifier: v.str(), Citation: v.str(), License: v.str(), RelatedDatasets: v.list(), VisibleTo: v.list(), Year: v.num(),
		},
		Servable: schema.Servable{
			Type: schema.ModelType(v.str()), Dependencies: v.strMap(), ModelComponents: v.strMap(), Entry: v.str(), Steps: v.list(),
			Input: v.dataType(), Output: v.dataType(), Hyperparameters: v.rawMap(), TrainingMetadata: v.rawMap(),
		},
	}
}

// fields is a document as the index holds it, sometimes with a value of
// a type Flatten does not make.
func (v repoValues) fields() map[string]any {
	m := schema.Flatten(v.document())
	if v.rng.Intn(2) == 0 {
		m[v.str()] = []any{1.5, true, nil, map[string]any{"<": v.str()}}[v.rng.Intn(4)]
	}
	return m
}

func (v repoValues) facets() map[string]map[string]int {
	if v.rng.Intn(2) == 0 {
		return []map[string]map[string]int{nil, {}}[v.rng.Intn(2)]
	}
	return map[string]map[string]int{"type": {v.str(): 2, "keras": 1}, v.str(): {}}
}

func TestRepositoryEnvelopesMatchEncodingJSON(t *testing.T) {
	// The shapes the routes produce.
	doc := &schema.Document{
		ID: "anonymous/m-0001", Owner: "urn:dlhub:anonymous", Version: 3, PublishedAt: time.Date(2019, 5, 1, 12, 30, 0, 0, time.UTC),
		Publication: schema.Publication{Name: "m-0001", Title: "alloy lattice model", Authors: []string{"Bench, A.", "Mark, B."},
			Description: "predicts from images", Domains: []string{"benchmarking"}, VisibleTo: []string{"public"}, Year: 2011},
		Servable: schema.Servable{Type: schema.TypePythonFunction, Entry: "noop:hello",
			Input: schema.DataType{Kind: "string"}, Output: schema.DataType{Kind: "string"}},
	}
	hit := SearchHitV2{ID: doc.ID, Doc: schema.Flatten(doc)}
	search := SearchPageV2{Page: Page[SearchHitV2]{Items: []SearchHitV2{hit, hit}, Total: 12, NextCursor: encodeCursor(2)}}
	faceted := SearchPageV2{Page: Page[SearchHitV2]{Items: []SearchHitV2{}}, Facets: map[string]map[string]int{"type": {"python_function": 1}}}
	for _, data := range []any{
		doc, &schema.Document{},
		ServableView{Document: doc}, ServableView{Document: doc, Placements: []string{}}, ServableView{Document: doc, Placements: []string{"tm-1", "tm-2"}},
		search, faceted, SearchPageV2{Page: Page[SearchHitV2]{Items: []SearchHitV2{}}},
	} {
		checkRepoEnvelope(t, data, true)
	}
	// The nils no route produces are left to writeV2.
	for _, data := range []any{
		(*schema.Document)(nil), ServableView{}, SearchPageV2{}, SearchPageV2{Page: Page[SearchHitV2]{Items: []SearchHitV2{hit, {ID: "x"}}}},
	} {
		checkRepoEnvelope(t, data, false)
	}
	// Every field against every awkward value.
	v := repoValues{rand.New(rand.NewSource(1))}
	for i := 0; i < 1000; i++ {
		hits := make([]SearchHitV2, v.rng.Intn(4))
		for j := range hits {
			hits[j] = SearchHitV2{ID: v.str(), Doc: v.fields()}
		}
		page := Page[SearchHitV2]{Items: hits, Total: v.num(), NextCursor: v.str()}
		checkRepoEnvelope(t, SearchPageV2{Page: page, Facets: v.facets()}, true)
		checkRepoEnvelope(t, v.document(), true)
		checkRepoEnvelope(t, ServableView{Document: v.document(), Placements: v.list()}, true)
	}
	// Values encoding/json refuses are refused, and then written as writeV2 writes them.
	late := *doc
	late.PublishedAt = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	bad := *doc
	bad.Servable.TrainingMetadata = map[string]json.RawMessage{"epochs": json.RawMessage(`{`)}
	for _, data := range []any{&late, &bad, ServableView{Document: &late},
		SearchPageV2{Page: Page[SearchHitV2]{Items: []SearchHitV2{{ID: "x", Doc: map[string]any{"f": math.NaN()}}}}}} {
		checkRepoEnvelope(t, data, false)
	}
}

// FuzzRepositoryEnvelope is the property above on arbitrary field
// values: a document, a servable view and a search page of its
// flattened form, each byte for byte against encoding/json.
func FuzzRepositoryEnvelope(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add(s, awkwardStrings[(i+3)%len(awkwardStrings)], awkwardStrings[(i+5)%len(awkwardStrings)], i%3 == 0,
			i*977, int64(1_560_000_000+i), i*1800, []byte(rawValues[i%len(rawValues)]), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, a, b, c string, empty bool, n int, unix int64, zone int, raw []byte, facets bool) {
		list := []string{a, b}
		if empty {
			list = list[:0]
		}
		doc := &schema.Document{
			ID: a, Owner: b, Version: n, PublishedAt: time.Unix(unix, int64(n)).In(time.FixedZone(c, zone)),
			Publication: schema.Publication{Name: a, Title: b, Authors: list, Description: c, Domains: list[:len(list)/2],
				Identifier: c, Citation: a, License: b, RelatedDatasets: list, VisibleTo: list, Year: n},
			Servable: schema.Servable{
				Type: schema.ModelType(c), Dependencies: map[string]string{a: b}, ModelComponents: map[string]string{b: c, c: a},
				Entry: a, Steps: list, Input: schema.DataType{Kind: a, Shape: []int{n, -1}, ItemKind: b}, Output: schema.DataType{Kind: c, Description: a},
				Hyperparameters: map[string]json.RawMessage{a: raw}, TrainingMetadata: map[string]json.RawMessage{c: raw, "epochs": json.RawMessage(`10`)},
			},
		}
		fields := schema.Flatten(doc)
		fields[c] = raw // a []byte: a type Flatten does not make
		page := SearchPageV2{Page: Page[SearchHitV2]{Items: []SearchHitV2{{ID: a, Doc: fields}, {ID: b, Doc: schema.Flatten(doc)}}, Total: n, NextCursor: c}}
		if facets {
			page.Facets = map[string]map[string]int{a: {b: n, c: 1}}
		}
		checkRepoEnvelope(t, doc, marshals(doc))
		checkRepoEnvelope(t, ServableView{Document: doc, Placements: list}, marshals(doc))
		checkRepoEnvelope(t, page, marshals(page))
	})
}
