package servable

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/jsonlex"
)

// A one-pass reader of request payloads. It builds the value
// json.Unmarshal into an `any` builds — map[string]any, []any, string,
// float64, bool, nil; the last of duplicate keys wins; `[]` is an
// empty, non-nil slice — and fails exactly where json.Unmarshal fails,
// but it walks the bytes once: there is no validation scan before the
// decode, and a number is parsed where it is found. The value shares no
// memory with the input, so the caller may reuse the bytes at once.

// maxStack bounds the element stack a pooled reader keeps between
// payloads; a larger one, grown by an unusually long array, is dropped.
const maxStack = 4096

// reader is one decode's state over the shared lexer. elems holds the
// elements of the arrays being read, innermost last; an array's
// elements are copied out once, into a slice of the exact length, when
// it closes.
type reader struct {
	jsonlex.Lexer
	elems []any
}

var readers = sync.Pool{New: func() any { return new(reader) }}

// decodePayload decodes one JSON value, with nothing after it but
// whitespace. Every error wraps ErrBadInput.
func decodePayload(raw []byte) (any, error) {
	r := readers.Get().(*reader)
	r.Lexer = jsonlex.Lexer{B: raw}
	v, err := r.value()
	if err == nil {
		err = r.End()
	}
	// A failed decode leaves its open arrays' elements on the stack.
	clear(r.elems)
	r.B, r.elems = nil, r.elems[:0]
	if cap(r.elems) > maxStack {
		r.elems = nil
	}
	readers.Put(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return v, nil
}

func (r *reader) value() (any, error) {
	switch r.Peek() {
	case '{':
		return r.object()
	case '[':
		return r.array()
	case '"':
		start := r.I
		plain, err := r.Str()
		if err != nil {
			return nil, err
		}
		return text(r.B[start:r.I], plain)
	case 't':
		return true, r.Literal("true")
	case 'f':
		return false, r.Literal("false")
	case 'n':
		return nil, r.Literal("null")
	}
	f, err := r.number(64)
	return f, err
}

func (r *reader) array() (any, error) {
	base := len(r.elems)
	if err := r.List(']', func() error {
		v, err := r.value()
		r.elems = append(r.elems, v)
		return err
	}); err != nil {
		return nil, err
	}
	out := append([]any{}, r.elems[base:]...)
	clear(r.elems[base:])
	r.elems = r.elems[:base]
	return out, nil
}

func (r *reader) object() (any, error) {
	m := make(map[string]any)
	if err := r.List('}', func() error {
		tok, plain, err := r.Key()
		if err != nil {
			return err
		}
		key, err := text(tok, plain)
		if err != nil {
			return err
		}
		m[key], err = r.value()
		return err
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// text is the value of a checked string token, quotes included. A plain
// one is sliced out and copied; one with an escape or a byte past ASCII
// goes to encoding/json whole, which keeps its rules for escapes,
// surrogates and invalid UTF-8.
func text(tok []byte, plain bool) (string, error) {
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// number reads the JSON number that comes next and gives its value at
// the given precision: the lexer's walk gives it when it is exact, and
// strconv otherwise.
func (r *reader) number(bits int) (float64, error) {
	r.SkipSpace()
	start := r.I
	f, exact, err := r.Float(bits)
	if exact || err != nil {
		return f, err
	}
	return parseFloat(r.B[start:r.I], bits)
}

// parseFloat parses a checked number token off the lexer's exact path,
// apart from number so that path's frame carries none of strconv's. One
// out of the precision's range is an error, as it is to encoding/json.
func parseFloat(tok []byte, bits int) (float64, error) {
	f, err := strconv.ParseFloat(string(tok), bits)
	if err != nil {
		return 0, fmt.Errorf("number %s out of range", tok)
	}
	return f, nil
}

// floatsFromJSON reads a JSON array of numbers straight into a float
// slice, each number parsed at F's precision, without building a []any
// of boxed numbers first. Anything else — a null document or element
// included, which encoding/json would leave as a silent nil or zero —
// is ErrBadInput.
func floatsFromJSON[F float32 | float64](raw []byte) ([]F, error) {
	bits := 64
	if _, ok := any(F(0)).(float32); ok {
		bits = 32
	}
	r := reader{Lexer: jsonlex.Lexer{B: raw}}
	if r.Peek() != '[' {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, r.Syntax("looking for an array of numbers"))
	}
	out := []F{}
	err := r.List(']', func() error {
		f, err := r.number(bits)
		out = append(out, F(f))
		return err
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadInput, err)
	}
	return out, nil
}
