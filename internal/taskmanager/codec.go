package taskmanager

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strconv"
)

var errBody = errors.New("task payload is not one JSON input or a batch, inline or on newline-ended lines")
var errReply = errors.New("reply frame is malformed")

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

const replyOK, replyCached, replyBatch = 1, 2, 4 // a reply frame's flag bits

// EncodeReply writes rep as a reply frame in the queue frames' layout: task
// ID, error text and the steps' JSON (pipelines only) as uvarint-length
// fields; flags, inference_us and invocation_us as bare uvarints; then the
// output's JSON, a batch's as one array, in one buffer sized up front: a
// json.RawMessage as it is, a plain-ASCII string quoted, else json.Marshal.
func EncodeReply(rep Reply) ([]byte, error) {
	var steps []byte
	if len(rep.Steps) > 0 {
		steps, _ = json.Marshal(rep.Steps) // strings, numbers and bools: it always marshals
	}
	flags, outs := int64(0), rep.Outputs
	if rep.OK {
		flags |= replyOK
	}
	if rep.Cached {
		flags |= replyCached
	}
	if outs != nil {
		flags |= replyBatch
	} else if rep.Output != nil {
		outs = []any{rep.Output}
	}
	n := 3*binary.MaxVarintLen32 + len(rep.TaskID) + len(rep.Error) + len(steps) + 3*binary.MaxVarintLen64 + 1 + len(outs)
	for _, v := range outs {
		switch v := v.(type) {
		case json.RawMessage:
			n += len(v)
		case string:
			n += len(v) + 2
		}
	}
	b := appendField(appendField(appendField(make([]byte, 0, n), rep.TaskID), rep.Error), steps)
	for _, u := range [...]int64{flags, rep.InferenceMicros, rep.InvocationMicros} {
		b = binary.AppendUvarint(b, uint64(max(u, 0)))
	}
	if rep.Outputs != nil {
		b = append(b, '[')
	}
	for i, v := range outs {
		if i > 0 {
			b = append(b, ',')
		}
		switch v := v.(type) {
		case json.RawMessage:
			if len(v) == 0 {
				v = json.RawMessage("null")
			}
			b = append(b, v...)
		case string:
			b = appendString(b, v)
		default:
			enc, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			b = append(b, enc...)
		}
	}
	if rep.Outputs != nil {
		b = append(b, ']')
	}
	return b, nil
}

func appendField[T string | []byte](b []byte, f T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(f))), f...)
}

// DecodedReply is a reply frame as DecodeReply reads it; its byte fields
// alias the frame, and Output or Outputs is nil when the reply has none.
type DecodedReply struct {
	TaskID, Error, Output, Outputs    []byte
	OK, Cached                        bool
	InferenceMicros, InvocationMicros int64
	Steps                             []StepStat
}

// DecodeReply reads what EncodeReply wrote; any other bytes are an error,
// and so is an output that is not one JSON value — the queue protocol is
// unauthenticated, and the output goes into caches and envelopes as it is.
func DecodeReply(p []byte) (DecodedReply, error) {
	var f [3][]byte
	var num [3]uint64
	for i := range f {
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)-n) {
			return DecodedReply{}, errReply
		}
		f[i], p = p[n:n+int(l)], p[n+int(l):]
	}
	for i := range num {
		v, n := binary.Uvarint(p)
		if n <= 0 || v > math.MaxInt64 {
			return DecodedReply{}, errReply
		}
		num[i], p = v, p[n:]
	}
	if num[0] > replyOK|replyCached|replyBatch || len(p) > 0 && !json.Valid(p) {
		return DecodedReply{}, errReply
	}
	r := DecodedReply{TaskID: f[0], Error: f[1], OK: num[0]&replyOK != 0, Cached: num[0]&replyCached != 0,
		InferenceMicros: int64(num[1]), InvocationMicros: int64(num[2])}
	if len(p) > 0 && num[0]&replyBatch != 0 {
		r.Outputs = p
	} else if len(p) > 0 {
		r.Output = p
	}
	if len(f[2]) > 0 {
		var steps []StepStat // declared here: a reply without steps keeps r off the heap
		if json.Unmarshal(f[2], &steps) != nil {
			return DecodedReply{}, errReply
		}
		r.Steps = steps
	}
	return r, nil
}
