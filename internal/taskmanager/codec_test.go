package taskmanager

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// value decodes one JSON document with numbers kept as text.
func value(t *testing.T, raw []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%q: %v", raw, err)
	}
	return v
}

// payloads lists a task's payloads in body order.
func payloads(task Task) []json.RawMessage {
	if raw, ok := task.Input.(json.RawMessage); ok {
		return []json.RawMessage{raw}
	}
	return task.Inputs
}

// sameTask fails unless got carries want's envelope and, value for value,
// its payloads.
func sameTask(t *testing.T, how string, got, want Task) {
	t.Helper()
	if got.ID != want.ID || got.Kind != want.Kind || got.Servable != want.Servable || got.Executor != want.Executor ||
		!slices.Equal(got.Steps, want.Steps) || got.Replicas != want.Replicas || got.NoMemo != want.NoMemo ||
		got.Tenant != want.Tenant || (got.Input == nil) != (want.Input == nil) || (got.Inputs == nil) != (want.Inputs == nil) ||
		(got.Package == nil) != (want.Package == nil) {
		t.Fatalf("%s: envelope changed:\n got %+v\nwant %+v", how, got, want)
	}
	if want.Package != nil && (!reflect.DeepEqual(value(t, got.Package.Doc), value(t, want.Package.Doc)) ||
		!reflect.DeepEqual(got.Package.Components, want.Package.Components)) {
		t.Fatalf("%s: package changed:\n got %+v\nwant %+v", how, got.Package, want.Package)
	}
	g, w := payloads(got), payloads(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d payloads, want %d", how, len(g), len(w))
	}
	for i := range w {
		if gv, wv := value(t, g[i]), value(t, w[i]); !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: payload %d is %s, want %s", how, i, g[i], w[i])
		}
	}
}

// sameAsReference fails unless DecodeTask answers body as it does with
// every envelope left to encoding/json: the same Task, payloads byte for
// byte, or an error from both.
func sameAsReference(t *testing.T, body []byte) {
	t.Helper()
	got, err := DecodeTask(body)
	want, refErr := decodeTask(body, false)
	if (err == nil) != (refErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: one pass gave %+v (%v), the reference %+v (%v)", body, got, err, want, refErr)
	}
}

// FuzzTaskCodec holds the task body to its contract on arbitrary tasks:
// every envelope field and each payload survive EncodeTask → DecodeTask
// (and the inline form json.Marshal writes), the first "id":" in the body
// is the task's, each payload is exactly one line, and on any bytes — the
// fuzzed ones, each encoding and every cut of one — DecodeTask's one-pass
// reader answers as the encoding/json reference does, without panicking.
// A deploy carries a package whose component is the payload.
func FuzzTaskCodec(f *testing.F) {
	for i, p := range []string{
		" [ 1 ,\n\t2.50 ]\r\n", `"a\nb"`, "\"<>&\u2028\"", `[[1,[2,[]]],[[]]]`, `"\"id\":\"x\""`,
		`{"id":"x","batch":true}`, `9007199254740993`, `null`,
	} {
		f.Add("0123456789abcdef", "run", "o/m", "", "acme", "", 0, false, []byte(p), uint8(i))
	}
	f.Add("d1", "deploy", "o/m", "sagemaker", "", "o/a\x00o/b", 3, true, []byte(`1`), uint8(0))
	f.Add("1", "run_batch", "o/m", "", "acme", "", 0, true, []byte(`[1,2]`), uint8(2+3*3))
	f.Add("2", "pipeline", "o/p", "parsl", "", "o/a\x00o/b\x00o/c", 0, false, []byte(`"x"`), uint8(1))
	f.Add("3", "scale", "o/m", "parsl", "", "", -7, false, []byte(`0`), uint8(0))
	f.Add("4", "undeploy", "o/m", "", "", "", 0, false, []byte(`0`), uint8(0))
	f.Add("5", "deploy", "o/m", "", "", "", 1, false, []byte(`{"w":[0.5]}`), uint8(1))
	f.Add(`a"b\c`, "run", "o/é", "\t", "テナント", "", 0, false, []byte(`"\u00e9"`), uint8(1))
	f.Add("\x7f", "run", "o/m", "", "a\u2028b", "é\x00\"", 9223372036854775807, true, []byte(`1`), uint8(1))
	for _, p := range []string{
		`{"id":"a","replicas":-0}`, `{"id":"a","replicas":01}`, `{"id":"a","replicas":1e2}`, `{"id":"a","steps":[]}`,
		`{"id":"a","no_memo":false}`, `{"id":"a","tenant":"t","kind":"run"}`, `{"id":"a","ID":"b"}`, `{"id":"a"} `,
		`{"id":"a","kind":"run","steps":["x","y"],"replicas":99999999999999999999}`,
	} {
		f.Add("", "", "", "", "", "", 0, false, []byte(p+"\n1\n"), uint8(0))
	}
	f.Fuzz(func(t *testing.T, id, kind, servable, executor, tenant, steps string, replicas int, noMemo bool, payload []byte, shape uint8) {
		sameAsReference(t, payload)
		for _, s := range []string{id, kind, servable, executor, tenant, steps} {
			if !utf8.ValidString(s) {
				t.Skip() // encoding/json replaces invalid UTF-8: not this codec's to keep
			}
		}
		if !json.Valid(payload) {
			t.Skip()
		}
		task := Task{ID: id, Kind: kind, Servable: servable, Executor: executor, Tenant: tenant, Replicas: replicas, NoMemo: noMemo}
		if steps != "" {
			task.Steps = strings.Split(steps, "\x00")
		}
		if kind == "deploy" {
			task.Package = &PackageWire{Doc: json.RawMessage(`{"id":"o/m"}`), Components: map[string][]byte{"model": payload}}
		}
		switch shape % 3 {
		case 1:
			task.Input = json.RawMessage(payload)
		case 2:
			for i := 0; i <= int(shape/3)%4; i++ {
				task.Inputs = append(task.Inputs, payload)
			}
		}
		body, err := EncodeTask(task)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if i := bytes.Index(body, []byte(`"id":"`)); i != 1 {
			t.Fatalf(`the first "id":" is at %d, not the envelope's first field: %q`, i, body)
		}
		if n, want := bytes.Count(body, []byte{'\n'}), 1+len(payloads(task)); n != want || body[len(body)-1] != '\n' {
			t.Fatalf("%d lines, want an envelope and %d payloads: %q", n, want-1, body)
		}
		got, err := DecodeTask(body)
		if err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		sameTask(t, "lines", *got, task)
		sameAsReference(t, body)
		for cut := 0; cut < len(body); cut += 1 + len(body)/16 {
			sameAsReference(t, body[:cut])
		}

		inline, err := json.Marshal(task)
		if err != nil {
			t.Fatal(err)
		}
		got, err = DecodeTask(inline)
		if err != nil {
			t.Fatalf("decode inline %s: %v", inline, err)
		}
		sameTask(t, "inline", *got, task)
		sameAsReference(t, inline)
	})
}

// FuzzReplyCodec holds the reply frame to its contract: every field of a
// single, batch or pipeline reply survives EncodeReply → DecodeReply, a
// json.RawMessage output comes back byte for byte (no escape added, no
// whitespace taken), a string or batch output decodes to what was sent,
// and DecodeReply answers any bytes — the fuzzed ones and every cut of a
// valid frame — without panicking.
func FuzzReplyCodec(f *testing.F) {
	for i, p := range []string{
		`"hello world"`, "[1,\n2.50]", "\"<>&\u2028\"", `{"b":1,"a":null}`, `9007199254740993`, `null`, `""`,
	} {
		f.Add("0123456789abcdef", "", true, false, uint32(3), uint32(41), []byte(p), uint8(i))
	}
	f.Add("t", "batch item 3: boom", false, false, uint32(0), uint32(1), []byte(`"x"`), uint8(2))
	f.Add("t", "écrasé: ошибка \u2028 <&>", false, true, uint32(0), uint32(9), []byte("a\nb<>&"), uint8(3))
	f.Add("", "", true, true, uint32(1<<31), uint32(7), []byte(`[0.25]`), uint8(4))
	f.Fuzz(func(t *testing.T, id, errText string, ok, cached bool, inference, invocation uint32, payload []byte, shape uint8) {
		DecodeReply(payload) //nolint:errcheck — any bytes, no panic
		if !utf8.ValidString(id) || !utf8.ValidString(errText) {
			t.Skip() // encoding/json replaces invalid UTF-8 in the steps
		}
		rep := Reply{TaskID: id, OK: ok, Error: errText, Cached: cached, InferenceMicros: int64(inference), InvocationMicros: int64(invocation)}
		raw := json.Valid(payload)
		switch shape % 5 {
		case 1:
			if !raw {
				t.Skip()
			}
			rep.Output = json.RawMessage(payload)
		case 2:
			if !raw {
				t.Skip()
			}
			for i := 0; i <= int(shape/5)%4; i++ {
				rep.Outputs = append(rep.Outputs, json.RawMessage(payload))
			}
		case 3:
			if !utf8.Valid(payload) {
				t.Skip()
			}
			rep.Output = string(payload)
		case 4:
			if !raw {
				t.Skip()
			}
			rep.Output = json.RawMessage(payload)
			rep.Steps = []StepStat{{Servable: id, InferenceMicros: 1, InvocationMicros: 2}, {Servable: errText, Version: 3}}
		}
		body, err := EncodeReply(rep)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := DecodeReply(body)
		if err != nil {
			t.Fatalf("decode %q: %v", body, err)
		}
		if string(got.TaskID) != id || string(got.Error) != errText || got.OK != ok || got.Cached != cached ||
			got.InferenceMicros != int64(inference) || got.InvocationMicros != int64(invocation) ||
			(got.Outputs != nil) != (rep.Outputs != nil) || !reflect.DeepEqual(got.Steps, rep.Steps) {
			t.Fatalf("header changed:\n got %+v\nwant %+v", got, rep)
		}
		switch shape % 5 {
		case 0:
			if got.Output != nil || got.Outputs != nil {
				t.Fatalf("a reply without output decoded one: %q %q", got.Output, got.Outputs)
			}
		case 1, 4:
			if !bytes.Equal(got.Output, payload) {
				t.Fatalf("output %q came back %q", payload, got.Output)
			}
		case 2:
			want := make([]any, len(rep.Outputs))
			for i := range want {
				want[i] = value(t, payload)
			}
			if gv := value(t, got.Outputs); !reflect.DeepEqual(gv, want) {
				t.Fatalf("outputs %q, want %d × %q", got.Outputs, len(rep.Outputs), payload)
			}
		case 3:
			if gv := value(t, got.Output); gv != string(payload) {
				t.Fatalf("string output %q came back %q", payload, got.Output)
			}
		}
		for cut := 0; cut < len(body); cut += 1 + len(body)/16 {
			DecodeReply(body[:cut]) //nolint:errcheck — any bytes, no panic
		}
	})
}

// TestEncodedHeadsReadInOnePass: the envelope EncodeTask writes for every
// kind but a deploy is read without encoding/json, so an encoder change
// that leaves the one-pass layout fails here rather than quietly decoding
// by reflection; what the layout does not account for goes to the
// reference, and decodes as it did.
func TestEncodedHeadsReadInOnePass(t *testing.T) {
	in := json.RawMessage(`"k000000000000000"`)
	for _, task := range []Task{
		{ID: "0123456789abcdef", Kind: "run", Servable: "o/m", Executor: "parsl", NoMemo: true, Tenant: "acme", Input: in},
		{ID: "1", Kind: "run_batch", Servable: "o/m", Inputs: []json.RawMessage{in, in}, Tenant: "acme"},
		{ID: "2", Kind: "pipeline", Servable: "o/p", Steps: []string{"o/a", "o/b"}, Input: in},
		{ID: "3", Kind: "scale", Servable: "o/m", Executor: "parsl", Replicas: 3},
		{ID: "4", Kind: "undeploy", Servable: "o/m"},
	} {
		body, err := EncodeTask(task)
		if err != nil {
			t.Fatal(err)
		}
		head, _, _ := bytes.Cut(body, []byte{'\n'})
		if got, _ := readHead(head); got == nil {
			t.Errorf("%s: %s was left to encoding/json", task.Kind, head)
		}
		sameAsReference(t, body)
	}
	for _, head := range []string{
		`{"id":"d","kind":"deploy","package":{"doc":{}}}`,
		`{"id":"a\"b"}`,
		`{"id":"é"}`,
		`{"kind":"run","id":"a"}`,
		`{"id":"a","kind":"run","input":1}`,
		`"a"}`,
		`{"id":"a"`,
		`{"id":"a","steps":["x",]}`,
	} {
		if got, _ := readHead([]byte(head)); got != nil {
			t.Errorf("%s read in one pass as %+v", head, got)
		}
		sameAsReference(t, []byte(head+"\n"))
	}
}

// BenchmarkDecodeTask is the Task Manager's read of a run task as
// EncodeTask writes it: the envelope and one payload line.
func BenchmarkDecodeTask(b *testing.B) {
	body, err := EncodeTask(Task{ID: "0123456789abcdef", Kind: "run", Servable: "bench/noop", Input: json.RawMessage(`"k000000000000000"`)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeTask(body); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeTaskRefusesMixedForms: a payload comes inline or on lines,
// and a task that is not a batch has at most one line.
func TestDecodeTaskRefusesMixedForms(t *testing.T) {
	for _, body := range []string{
		`{"id":"a","kind":"run","input":1}` + "\n2\n",
		`{"id":"a","kind":"run_batch","inputs":[1]}` + "\n2\n",
		`{"id":"a","kind":"run_batch","input":1,"batch":true}` + "\n",
		`{"id":"a","kind":"run"}` + "\n1\n2\n",
		`{"id":"a","kind":"run"}` + "\n1",  // unterminated
		`{"id":"a","kind":"run"}` + "\n\n", // empty line
		`{"id":"a","kind":"run","batch":1}` + "\n1\n",
		"[1]\n",
		"",
	} {
		if task, err := DecodeTask([]byte(body)); err == nil {
			t.Errorf("%q decoded to %+v", body, task)
		}
	}
}

// TestDeployTaskRoundTrip: a deploy's package rides the envelope; an
// input that is a Go value, not JSON bytes, is refused.
func TestDeployTaskRoundTrip(t *testing.T) {
	wire := &PackageWire{Doc: json.RawMessage(`{"id":"o/m"}`), Components: map[string][]byte{"model": {0, 1, 2}}}
	if _, err := EncodeTask(Task{ID: "d", Kind: "run", Input: map[string]int{"k": 1}}); err == nil {
		t.Fatal("a Go value as input was encoded")
	}
	body, err := EncodeTask(Task{ID: "d", Kind: "deploy", Replicas: 2, Package: wire, Input: json.RawMessage(`{"k":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTask(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Package == nil || string(got.Package.Doc) != `{"id":"o/m"}` || !bytes.Equal(got.Package.Components["model"], []byte{0, 1, 2}) {
		t.Fatalf("package lost: %+v", got.Package)
	}
	if raw, ok := got.Input.(json.RawMessage); !ok || string(raw) != `{"k":1}` {
		t.Fatalf("input %#v", got.Input)
	}
}
