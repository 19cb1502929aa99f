// Package jsonlex is the lexical layer of the service's one-pass JSON
// readers: whitespace, strings, numbers, literals, and arrays and
// objects as bracketed lists under encoding/json's nesting bound. It
// accepts exactly the grammar encoding/json accepts (invalid UTF-8
// inside a string included) and builds nothing; a reader on top of it
// decides what a token becomes.
package jsonlex

import (
	"errors"
	"fmt"
)

// MaxDepth is encoding/json's nesting limit: a value nested deeper than
// this is refused.
const MaxDepth = 10000

// Lexer reads the JSON text in B from offset I. Depth counts the lists
// open around I. Spaced is set whenever whitespace is passed over, so a
// reader can tell whether a value it read held any outside its strings.
type Lexer struct {
	B      []byte
	I      int
	Depth  int
	Spaced bool
}

// Syntax is the error for the byte at I, or for the end of the input.
func (l *Lexer) Syntax(where string) error {
	if l.I >= len(l.B) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", l.B[l.I], where, l.I)
}

// SkipSpace passes over whitespace; the usual next byte, above ' ', is
// one comparison.
func (l *Lexer) SkipSpace() {
	for l.I < len(l.B) {
		if c := l.B[l.I]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		l.I++
		l.Spaced = true
	}
}

// Peek skips whitespace and returns the next byte, or 0 at the end.
func (l *Lexer) Peek() byte {
	if l.SkipSpace(); l.I < len(l.B) {
		return l.B[l.I]
	}
	return 0
}

// Skip consumes c if it is the next byte.
func (l *Lexer) Skip(c byte) bool {
	if l.I < len(l.B) && l.B[l.I] == c {
		l.I++
		return true
	}
	return false
}

// Eat consumes c, after whitespace, if it comes next.
func (l *Lexer) Eat(c byte) bool {
	l.SkipSpace()
	return l.Skip(c)
}

// End checks that only whitespace follows the top-level value.
func (l *Lexer) End() error {
	if l.SkipSpace(); l.I < len(l.B) {
		return l.Syntax("after top-level value")
	}
	return nil
}

// Literal consumes word (true, false or null) at I.
func (l *Lexer) Literal(word string) error {
	if end := l.I + len(word); end <= len(l.B) && string(l.B[l.I:end]) == word {
		l.I = end
		return nil
	}
	return fmt.Errorf("invalid literal at offset %d, want %s", l.I, word)
}

// List reads an array or object from its opening bracket at I to its
// closing byte: item reads each comma-separated member.
func (l *Lexer) List(closing byte, item func() error) error {
	if l.Depth++; l.Depth > MaxDepth {
		return fmt.Errorf("exceeded max depth %d (offset %d)", MaxDepth, l.I)
	}
	l.I++
	if !l.Eat(closing) {
		for {
			if err := item(); err != nil {
				return err
			}
			if l.Eat(',') {
				continue
			}
			if l.Skip(closing) {
				break
			}
			return l.Syntax("after array element or object member")
		}
	}
	l.Depth--
	return nil
}

// Str consumes the string whose opening quote is at I. plain reports
// a string of ASCII without an escape: its bytes between the quotes are
// its value.
func (l *Lexer) Str() (plain bool, err error) {
	plain = true
	for l.I++; l.I < len(l.B); l.I++ {
		switch c := l.B[l.I]; {
		case c == '"':
			l.I++
			return plain, nil
		case c == '\\':
			plain = false
			if l.I++; l.I == len(l.B) {
				return false, l.Syntax("")
			}
			switch l.B[l.I] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for end := l.I + 4; l.I < end; {
					if l.I++; l.I == len(l.B) || !isHex(l.B[l.I]) {
						return false, l.Syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				return false, l.Syntax("in string escape code")
			}
		case c < 0x20:
			return false, l.Syntax("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	return false, l.Syntax("")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Number consumes the JSON number at I,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (l *Lexer) Number() error {
	_, _, _, err := l.walk()
	return err
}

// Float consumes the JSON number at I, as Number does, and gives its
// value at 64 or 32 bits when one IEEE operation gives it exactly
// (Clinger's fast path): a mantissa the precision holds exactly (up to
// 2^53, or 2^24) times or over a power of ten it holds exactly (up to
// 1e22, or 1e10). Otherwise exact is false and the caller parses the
// token itself.
func (l *Lexer) Float(bits int) (f float64, exact bool, err error) {
	mant, exp, neg, err := l.walk()
	switch {
	case err != nil:
		return 0, false, err
	case bits == 64 && mant <= 1<<53 && -22 <= exp && exp <= 22:
		f = scale[float64](mant, exp)
	case bits == 32 && mant <= 1<<24 && -10 <= exp && exp <= 10:
		f = float64(scale[float32](mant, exp))
	default:
		return 0, false, nil
	}
	if neg {
		f = -f
	}
	return f, true, nil
}

// scale is mant × 10^exp in F's arithmetic: one correctly rounded
// operation on two exact operands.
func scale[F float32 | float64](mant uint64, exp int) F {
	if exp < 0 {
		return F(mant) / F(pow10[-exp])
	}
	return F(mant) * F(pow10[exp])
}

// pow10 are the powers of ten a float64 holds exactly; a float32 holds
// those up to 1e10.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// walk is the one number walk under Number and Float: it checks the
// grammar a byte at a time and reads the number as mant × 10^exp, on
// locals, which stay in registers. mant stops growing at 2^60, past any
// exact mantissa, and the exponent's digits at 2^20, past any exact
// power: neither can overflow.
func (l *Lexer) walk() (mant uint64, exp int, neg bool, err error) {
	b, i := l.B, l.I
	if neg = i < len(b) && b[i] == '-'; neg {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = min(mant*10+uint64(b[i]-'0'), 1<<60)
		}
	default:
		l.I = i
		return 0, 0, false, l.Syntax("looking for beginning of value")
	}
	if i < len(b) && b[i] == '.' {
		start := i + 1
		for i = start; i < len(b) && b[i]-'0' <= 9; i++ {
			mant, exp = min(mant*10+uint64(b[i]-'0'), 1<<60), exp-1
		}
		if i == start {
			l.I = i
			return 0, 0, false, l.Syntax("after decimal point in numeric literal")
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if eneg || i < len(b) && b[i] == '+' {
			i++
		}
		start, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			e = min(e*10+int(b[i]-'0'), 1<<20)
		}
		if i == start {
			l.I = i
			return 0, 0, false, l.Syntax("in exponent of numeric literal")
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	l.I = i
	return mant, exp, neg, nil
}

// Value consumes the value that comes next, whatever it is, checking
// its grammar.
func (l *Lexer) Value() error {
	switch l.Peek() {
	case '{':
		return l.List('}', l.member)
	case '[':
		return l.List(']', l.Value)
	case '"':
		_, err := l.Str()
		return err
	case 't':
		return l.Literal("true")
	case 'f':
		return l.Literal("false")
	case 'n':
		return l.Literal("null")
	}
	return l.Number()
}

// member consumes one "key": value member of an object.
func (l *Lexer) member() error {
	if _, _, err := l.Key(); err != nil {
		return err
	}
	return l.Value()
}

// Key consumes an object key and the colon after it. tok is the key's
// string token, quotes included; plain is as for Str.
func (l *Lexer) Key() (tok []byte, plain bool, err error) {
	if l.Peek() != '"' {
		return nil, false, l.Syntax("looking for beginning of object key string")
	}
	start := l.I
	if plain, err = l.Str(); err != nil {
		return nil, false, err
	}
	tok = l.B[start:l.I]
	if !l.Eat(':') {
		return nil, false, l.Syntax("after object key")
	}
	return tok, plain, nil
}
