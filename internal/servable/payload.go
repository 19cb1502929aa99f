package servable

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
)

// A one-pass reader of request payloads. It builds the value
// json.Unmarshal into an `any` builds — map[string]any, []any, string,
// float64, bool, nil; the last of duplicate keys wins; `[]` is an
// empty, non-nil slice — and fails exactly where json.Unmarshal fails,
// but it walks the bytes once: there is no validation scan before the
// decode, and a number is parsed where it is found. The value shares no
// memory with the input, so the caller may reuse the bytes at once.

// maxDepth is encoding/json's nesting limit: a value nested deeper than
// this is refused.
const maxDepth = 10000

// maxStack bounds the element stack a pooled reader keeps between
// payloads; a larger one, grown by an unusually long array, is dropped.
const maxStack = 4096

// reader is one decode's state. elems holds the elements of the arrays
// being read, innermost last; an array's elements are copied out once,
// into a slice of the exact length, when it closes.
type reader struct {
	b     []byte
	i     int
	depth int
	elems []any
}

var readers = sync.Pool{New: func() any { return new(reader) }}

// decodePayload decodes one JSON value, with nothing after it but
// whitespace. Every error wraps ErrBadInput.
func decodePayload(raw []byte) (any, error) {
	r := readers.Get().(*reader)
	r.b, r.i, r.depth = raw, 0, 0
	v, err := r.value()
	if err == nil {
		err = r.end()
	}
	// A failed decode leaves its open arrays' elements on the stack.
	clear(r.elems)
	r.b, r.elems = nil, r.elems[:0]
	if cap(r.elems) > maxStack {
		r.elems = nil
	}
	readers.Put(r)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (r *reader) syntax(where string) error {
	if r.i >= len(r.b) {
		return fmt.Errorf("%w: unexpected end of JSON input", ErrBadInput)
	}
	return fmt.Errorf("%w: invalid character %q %s (offset %d)", ErrBadInput, r.b[r.i], where, r.i)
}

func (r *reader) skipSpace() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *reader) peek() byte {
	if r.skipSpace(); r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

// skip consumes c if it is the next byte.
func (r *reader) skip(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// eat consumes c, after whitespace, if it comes next.
func (r *reader) eat(c byte) bool {
	r.skipSpace()
	return r.skip(c)
}

// end checks that only whitespace follows the top-level value.
func (r *reader) end() error {
	if r.skipSpace(); r.i < len(r.b) {
		return r.syntax("after top-level value")
	}
	return nil
}

func (r *reader) value() (any, error) {
	switch r.peek() {
	case '{':
		return r.object()
	case '[':
		return r.array()
	case '"':
		return r.str()
	case 't':
		return true, r.literal("true")
	case 'f':
		return false, r.literal("false")
	case 'n':
		return nil, r.literal("null")
	}
	f, err := r.number(64)
	return f, err
}

func (r *reader) literal(word string) error {
	if end := r.i + len(word); end <= len(r.b) && string(r.b[r.i:end]) == word {
		r.i = end
		return nil
	}
	return fmt.Errorf("%w: invalid literal at offset %d, want %s", ErrBadInput, r.i, word)
}

// list reads an array or object from its opening bracket at r.i to its
// closing byte: item reads each comma-separated member.
func (r *reader) list(closing byte, item func() error) error {
	if r.depth++; r.depth > maxDepth {
		return fmt.Errorf("%w: exceeded max depth %d (offset %d)", ErrBadInput, maxDepth, r.i)
	}
	r.i++
	if !r.eat(closing) {
		for {
			if err := item(); err != nil {
				return err
			}
			if r.eat(closing) {
				break
			}
			if !r.eat(',') {
				return r.syntax("after array element or object member")
			}
		}
	}
	r.depth--
	return nil
}

func (r *reader) array() (any, error) {
	base := len(r.elems)
	if err := r.list(']', func() error {
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
	if err := r.list('}', func() error {
		if r.peek() != '"' {
			return r.syntax("looking for beginning of object key string")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		if !r.eat(':') {
			return r.syntax("after object key")
		}
		m[key], err = r.value()
		return err
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// str reads the string at r.i, its opening quote. A string of plain
// ASCII is sliced out and copied; one with an escape or a byte past
// ASCII goes to encoding/json whole, which keeps its rules for escapes,
// surrogates and invalid UTF-8.
func (r *reader) str() (string, error) {
	start := r.i
	plain := true
	for r.i++; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			if plain {
				return string(r.b[start+1 : r.i-1]), nil
			}
			var s string
			if err := json.Unmarshal(r.b[start:r.i], &s); err != nil {
				return "", fmt.Errorf("%w: string at offset %d: %v", ErrBadInput, start, err)
			}
			return s, nil
		case c == '\\':
			plain = false
			r.i++ // the escaped byte cannot end the string
		case c < 0x20:
			return "", r.syntax("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	return "", r.syntax("")
}

// number reads the JSON number that comes next,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and parses it at the
// given precision; one out of that precision's range is an error, as
// it is to encoding/json.
func (r *reader) number(bits int) (float64, error) {
	r.skipSpace()
	start := r.i
	r.skip('-')
	if !r.skip('0') && !r.digits() {
		return 0, r.syntax("looking for beginning of value")
	}
	if r.skip('.') && !r.digits() {
		return 0, r.syntax("after decimal point in numeric literal")
	}
	if r.skip('e') || r.skip('E') {
		if !r.skip('+') {
			r.skip('-')
		}
		if !r.digits() {
			return 0, r.syntax("in exponent of numeric literal")
		}
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.i]), bits)
	if err != nil {
		return 0, fmt.Errorf("%w: number %s out of range", ErrBadInput, r.b[start:r.i])
	}
	return f, nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (r *reader) digits() bool {
	start := r.i
	for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
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
	r := reader{b: raw}
	if r.peek() != '[' {
		return nil, r.syntax("looking for an array of numbers")
	}
	out := []F{}
	err := r.list(']', func() error {
		f, err := r.number(bits)
		out = append(out, F(f))
		return err
	})
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
