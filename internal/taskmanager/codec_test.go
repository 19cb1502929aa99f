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
