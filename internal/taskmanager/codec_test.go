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
		got.Tenant != want.Tenant || (got.Input == nil) != (want.Input == nil) || (got.Inputs == nil) != (want.Inputs == nil) {
		t.Fatalf("%s: envelope changed:\n got %+v\nwant %+v", how, got, want)
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

// FuzzTaskCodec holds the task body to its contract on arbitrary tasks:
// every envelope field and each payload survive EncodeTask → DecodeTask
// (and the inline form json.Marshal writes), the first "id":" in the body
// is the task's, each payload is exactly one line, and DecodeTask answers
// any bytes — the fuzzed ones, and every cut of a valid body — without
// panicking.
func FuzzTaskCodec(f *testing.F) {
	for i, p := range []string{
		" [ 1 ,\n\t2.50 ]\r\n", `"a\nb"`, "\"<>&\u2028\"", `[[1,[2,[]]],[[]]]`, `"\"id\":\"x\""`,
		`{"id":"x","batch":true}`, `9007199254740993`, `null`,
	} {
		f.Add("0123456789abcdef", "run", "o/m", "", "acme", "", 0, false, []byte(p), uint8(i))
	}
	f.Add("d1", "deploy", "o/m", "sagemaker", "", "o/a\x00o/b", 3, true, []byte(`1`), uint8(0))
	f.Fuzz(func(t *testing.T, id, kind, servable, executor, tenant, steps string, replicas int, noMemo bool, payload []byte, shape uint8) {
		DecodeTask(payload) //nolint:errcheck — any bytes, no panic
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
		for cut := 0; cut < len(body); cut += 1 + len(body)/16 {
			DecodeTask(body[:cut]) //nolint:errcheck — any bytes, no panic
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
