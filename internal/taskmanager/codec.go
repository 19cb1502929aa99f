package taskmanager

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
)

var errBody = errors.New("task payload is not one JSON input or a batch, inline or on newline-ended lines")

// EncodeTask writes t as a task body: one JSON envelope line — every Task
// field but the payload, "id" first — then one line per payload, a run's
// input or a batch's inputs ("batch":true), its JSON text copied, never
// re-encoded. Compact JSON has no raw newline, so a line is one payload;
// a payload holding a newline is compacted. Input, if set, is a
// json.RawMessage. The buffer is fresh every call: payloads alias it.
func EncodeTask(t Task) ([]byte, error) {
	lines := t.Inputs
	if t.Input != nil {
		raw, ok := t.Input.(json.RawMessage)
		if !ok || len(lines) > 0 {
			return nil, errBody
		}
		lines = []json.RawMessage{raw}
	}
	var stack [256]byte // the envelope, before its exact-sized copy
	h := appendString(append(stack[:0], `{"id":`...), t.ID)
	field := func(name, s string) {
		if s != "" {
			h = appendString(append(h, name...), s)
		}
	}
	field(`,"kind":`, t.Kind)
	field(`,"servable":`, t.Servable)
	field(`,"executor":`, t.Executor)
	if len(t.Steps) > 0 {
		h = append(h, `,"steps":[`...)
		for i, s := range t.Steps {
			h = appendString(append(h, ","[:min(i, 1)]...), s)
		}
		h = append(h, ']')
	}
	if t.Replicas != 0 {
		h = strconv.AppendInt(append(h, `,"replicas":`...), int64(t.Replicas), 10)
	}
	if t.NoMemo {
		h = append(h, `,"no_memo":true`...)
	}
	field(`,"tenant":`, t.Tenant)
	if t.Package != nil { // deploys only: encoding/json
		pkg, err := json.Marshal(t.Package)
		if err != nil {
			return nil, err
		}
		h = append(append(h, `,"package":`...), pkg...)
	}
	if t.Input == nil && len(lines) > 0 {
		h = append(h, `,"batch":true`...)
	}
	n := len(h) + 2
	for _, l := range lines {
		n += len(l) + 1
	}
	b := append(append(make([]byte, 0, n), h...), "}\n"...)
	for _, l := range lines {
		if len(l) == 0 || bytes.IndexByte(l, '\n') >= 0 {
			buf := bytes.NewBuffer(b)
			if err := json.Compact(buf, l); err != nil {
				return nil, err
			}
			b = buf.Bytes()
		} else {
			b = append(b, l...)
		}
		b = append(b, '\n')
	}
	return b, nil
}

// appendString appends s as a JSON string: plain ASCII as it is,
// anything else as encoding/json writes it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// DecodeTask reads a task body: the envelope with encoding/json, the
// payloads by cutting lines that alias body. It also reads an input
// inline in the envelope, as json.Marshal(Task) writes it, but not both
// forms at once. Any bytes may arrive; what is not a task is an error.
func DecodeTask(body []byte) (*Task, error) {
	head, rest, _ := bytes.Cut(body, []byte{'\n'})
	var env struct {
		Task
		Input json.RawMessage `json:"input"` // shadows Task.Input: an inline input stays bytes
		Batch bool            `json:"batch"`
	}
	if err := json.Unmarshal(head, &env); err != nil {
		return nil, err
	}
	t := &env.Task
	if env.Input != nil {
		t.Input = env.Input
	}
	if (t.Input != nil || t.Inputs != nil) && (env.Batch || len(rest) > 0) {
		return nil, errBody
	}
	if env.Batch {
		t.Inputs = make([]json.RawMessage, 0, bytes.Count(rest, []byte{'\n'}))
	}
	for len(rest) > 0 {
		line, next, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok || len(line) == 0 || (!env.Batch && t.Input != nil) {
			return nil, errBody
		}
		line = line[:len(line):len(line)] // an append to it cannot run into the next line
		if env.Batch {
			t.Inputs = append(t.Inputs, line)
		} else {
			t.Input = json.RawMessage(line)
		}
		rest = next
	}
	return t, nil
}
