package core

import (
	"bytes"
	"encoding/json"
	"errors"

	"repro/internal/jsonlex"
)

// decodeRunBody fills req from a run body exactly as json.Unmarshal
// followed by compacted on each payload would, in one pass over the
// bytes: no validation scan before the decode, and no copy of a
// payload. Input and each element of Inputs are sub-slices of body,
// capped so an append cannot run into the next one; a payload with
// whitespace outside its strings is compacted into its own buffer. The
// caller hands over body: it must not be reused while req is.
//
// A body the scan does not take as it is — a key that is escaped or
// folds to a field's name without being it, a field of the wrong type,
// anything that is not JSON — goes to json.Unmarshal whole, so every
// answer and error text stays encoding/json's.
func decodeRunBody(body []byte, req *RunRequest) error {
	if scanRunBody(body, req) == nil {
		return nil
	}
	*req = RunRequest{}
	if err := json.Unmarshal(body, req); err != nil {
		return err
	}
	req.Input = compacted(req.Input)
	for i, in := range req.Inputs {
		req.Inputs[i] = compacted(in)
	}
	return nil
}

// errNotFast is scanRunBody's answer to a body it leaves to encoding/json.
var errNotFast = errors.New("run body: not for the one-pass scan")

// runFields are RunRequest's JSON names; a plain key that equals one
// but in case would match it in encoding/json.
var runFields = [...]string{"input", "inputs", "async", "no_memo", "no_cache", "executor"}

func scanRunBody(body []byte, req *RunRequest) error {
	l := jsonlex.Lexer{B: body}
	if l.Peek() != '{' {
		return errNotFast
	}
	err := l.List('}', func() error {
		tok, plain, err := l.Key()
		if err != nil || !plain {
			return errNotFast
		}
		var field any
		switch key := tok[1 : len(tok)-1]; string(key) {
		case "input":
			req.Input, err = scanPayload(&l)
			return err
		case "inputs":
			return scanInputs(&l, req)
		case "async":
			field = &req.Async
		case "no_memo":
			field = &req.NoMemo
		case "no_cache":
			field = &req.NoCache
		case "executor":
			field = &req.Executor
		default:
			for _, f := range runFields {
				if bytes.EqualFold(key, []byte(f)) {
					return errNotFast
				}
			}
			return l.Value()
		}
		// A flag or the executor: a few bytes, read by the field's own
		// rules (null leaves it as it is, a wrong type is an error).
		v, err := scanPayload(&l)
		if err == nil {
			err = json.Unmarshal(v, field)
		}
		return err
	})
	if err != nil {
		return err
	}
	return l.End()
}

// scanPayload reads the value that comes next as a payload.
func scanPayload(l *jsonlex.Lexer) (json.RawMessage, error) {
	l.SkipSpace()
	start := l.I
	l.Spaced = false
	if err := l.Value(); err != nil {
		return nil, err
	}
	raw := json.RawMessage(l.B[start:l.I:l.I])
	if l.Spaced {
		var buf bytes.Buffer
		json.Compact(&buf, raw) //nolint:errcheck — the scan checked raw
		raw = buf.Bytes()
	}
	return raw, nil
}

// scanInputs reads inputs, an array of payloads; a null is left to
// encoding/json.
func scanInputs(l *jsonlex.Lexer, req *RunRequest) error {
	if l.Peek() != '[' {
		return errNotFast
	}
	ins := []json.RawMessage{}
	err := l.List(']', func() error {
		in, err := scanPayload(l)
		ins = append(ins, in)
		return err
	})
	req.Inputs = ins
	return err
}
