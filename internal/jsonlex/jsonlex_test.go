package jsonlex

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// FuzzValue checks the grammar against encoding/json's: Value then End
// accept a document exactly when json.Valid does, and Spaced is set
// exactly when json.Compact would change it.
func FuzzValue(f *testing.F) {
	for _, s := range []string{
		`null`, `true`, `-0.5e+3`, `01`, `1.`, `"a\"é\/"`, `"\u12"`, `"\x"`, "\"\xff\"", "\"\x1f\"",
		`[1,[2,{"k":[]}]]`, `[1,]`, `{"a" 1}`, `{"a":1,}`, ` { "a" : [ 1 , 2 ] } `, "[1]\n", `[1] 2`, ``,
		strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth), strings.Repeat(`{"k":`, MaxDepth+1),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		l := Lexer{B: doc}
		l.SkipSpace()
		start := l.I
		l.Spaced = false
		err := l.Value()
		end, spacedIn := l.I, l.Spaced
		if err == nil {
			err = l.End()
		}
		if valid := json.Valid(doc); (err == nil) != valid {
			t.Fatalf("%q: lexer error %v, json.Valid %v", doc, err, valid)
		}
		if err != nil {
			return
		}
		var compact bytes.Buffer
		json.Compact(&compact, doc[start:end]) //nolint:errcheck — doc is valid
		if spaced := !bytes.Equal(compact.Bytes(), doc[start:end]); spaced != spacedIn {
			t.Fatalf("%q: Spaced %v, but json.Compact gives %q", doc, spacedIn, compact.Bytes())
		}
	})
}

// BenchmarkValue reads one 64-number array, a batch item of the
// benchmark's shape.
func BenchmarkValue(b *testing.B) {
	vec := []byte("[" + strings.TrimSuffix(strings.Repeat("0.123456,", 64), ",") + "]")
	b.SetBytes(int64(len(vec)))
	b.ReportAllocs()
	for b.Loop() {
		l := Lexer{B: vec}
		if err := l.Value(); err != nil {
			b.Fatal(err)
		}
	}
}

// parentNumber is Number as it was before the value walk: the grammar
// check alone, a run of digits at a time. FuzzNumber holds the walk to
// its decisions, end offsets and error texts.
func (l *Lexer) parentNumber() error {
	l.Skip('-')
	if !l.Skip('0') && !l.parentDigits() {
		return l.Syntax("looking for beginning of value")
	}
	if l.Skip('.') && !l.parentDigits() {
		return l.Syntax("after decimal point in numeric literal")
	}
	if l.Skip('e') || l.Skip('E') {
		if !l.Skip('+') {
			l.Skip('-')
		}
		if !l.parentDigits() {
			return l.Syntax("in exponent of numeric literal")
		}
	}
	return nil
}

func (l *Lexer) parentDigits() bool {
	start := l.I
	for l.I < len(l.B) && l.B[l.I]-'0' <= 9 {
		l.I++
	}
	return l.I > start
}

// numberSeeds sit at the edges of the exact path: 2^53, 19 and 20
// significant digits (leading zeros not counted), 22 and 23 fraction
// digits, 1e22 and 1e23, an exponent too long for any counter, and at
// 32 bits 2^24, 0.1 and the largest float32.
var numberSeeds = []string{
	`0`, `-0`, `-0.0`, `-0e5`, `0.123456`, `1.5e-3`, `1.5E+3`, `5e-324`, `1e22`, `1e23`, `-1e-22`,
	`9007199254740992`, `9007199254740993`, `1234567890123456789`, `12345678901234567890`,
	`0.000000000000000000123`, `0.1234567890123456789`, `0.12345678901234567890`,
	`0.0000000000000000000001`, `0.00000000000000000000001`, `100000000000000000000`,
	`1e123456789012345678901234567890`, `1e-123456789012345678901234567890`, `0e123456789012345678901234567890`,
	`16777216`, `16777217`, `0.1`, `3.4028235e38`, `1e10`, `1e-10`, `1e11`,
	`1e400`, `-`, `01`, `1.`, `.5`, `1e`, `1e+`, `-a`, `1.5x`, `1,2`, ` 1`, ``,
}

// FuzzNumber checks the one number walk: its decision, end offset and
// error text are the grammar check's, Number then End accepts exactly
// what json.Valid accepts, and whenever Float says exact, at either
// precision, its value is strconv's bit for bit.
func FuzzNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		ref := Lexer{B: doc}
		refErr := ref.parentNumber()
		l := Lexer{B: doc}
		err := l.Number()
		if fmt.Sprint(err) != fmt.Sprint(refErr) || l.I != ref.I {
			t.Fatalf("%q: Number ends at %d with %v, the grammar check at %d with %v", doc, l.I, err, ref.I, refErr)
		}
		accepted := err == nil && l.End() == nil
		if valid := json.Valid(doc) && len(doc) > 0 && (doc[0] == '-' || doc[0]-'0' <= 9); accepted != valid {
			t.Fatalf("%q: Number then End accept %v, json.Valid %v", doc, accepted, valid)
		}
		for _, bits := range []int{64, 32} {
			l := Lexer{B: doc}
			f, exact, err := l.Float(bits)
			if fmt.Sprint(err) != fmt.Sprint(refErr) || l.I != ref.I {
				t.Fatalf("%q: Float(%d) ends at %d with %v, the grammar check at %d with %v", doc, bits, l.I, err, ref.I, refErr)
			}
			if !exact {
				continue
			}
			want, err := strconv.ParseFloat(string(doc[:l.I]), bits)
			if err != nil {
				t.Fatalf("%q: Float(%d) says exact, strconv says %v", doc, bits, err)
			}
			if same := bits == 64 && math.Float64bits(f) == math.Float64bits(want) ||
				bits == 32 && math.Float32bits(float32(f)) == math.Float32bits(float32(want)); !same {
				t.Fatalf("%q: Float(%d) gives %v (%#x), strconv %v (%#x)", doc, bits, f, math.Float64bits(f), want, math.Float64bits(want))
			}
		}
	})
}

// TestFloatExactPath pins which numbers the walk gives a value for, so
// a walk that never says exact cannot pass FuzzNumber unnoticed.
func TestFloatExactPath(t *testing.T) {
	for _, c := range []struct {
		tok        string
		exact64    bool
		exact32    bool
		value, v32 float64
	}{
		{`0.123456`, true, true, 0.123456, float64(float32(0.123456))},
		{`-1.5e-3`, true, true, -0.0015, float64(float32(-0.0015))},
		{`9007199254740992`, true, false, 1 << 53, 0},
		{`9007199254740993`, false, false, 0, 0},
		{`1234567890123456789`, false, false, 0, 0}, // 19 digits, above 2^53
		{`0.000000000000000000123`, true, false, 1.23e-19, 0},
		{`1e22`, true, false, 1e22, 0},
		{`1e23`, false, false, 0, 0},
		{`0.0000000000000000000001`, true, false, 1e-22, 0},
		{`0.00000000000000000000001`, false, false, 0, 0},
		{`1e123456789012345678901234567890`, false, false, 0, 0},
		{`16777216`, true, true, 1 << 24, 1 << 24},
		{`16777217`, true, false, 1<<24 + 1, 0},
		{`0.1`, true, true, 0.1, float64(float32(0.1))},
		{`1e11`, true, false, 1e11, 0},
	} {
		for _, p := range []struct {
			bits  int
			exact bool
			want  float64
		}{{64, c.exact64, c.value}, {32, c.exact32, c.v32}} {
			l := Lexer{B: []byte(c.tok)}
			f, exact, err := l.Float(p.bits)
			if err != nil || exact != p.exact || l.I != len(c.tok) {
				t.Fatalf("Float(%d) of %s: exact %v, err %v, end %d; want exact %v", p.bits, c.tok, exact, err, l.I, p.exact)
			}
			if exact && f != p.want {
				t.Fatalf("Float(%d) of %s = %v, want %v", p.bits, c.tok, f, p.want)
			}
		}
	}
	for _, tok := range []string{`-0`, `-0.0`, `-0e5`} {
		l := Lexer{B: []byte(tok)}
		if f, exact, _ := l.Float(64); !exact || !math.Signbit(f) || f != 0 {
			t.Fatalf("Float of %s = %v (exact %v), want -0", tok, f, exact)
		}
	}
}

// BenchmarkNumber walks the 64 numbers of a batch item of the
// benchmark's shape (six decimals each), value and all.
func BenchmarkNumber(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var vec []byte
	for i := 0; i < 64; i++ {
		vec = strconv.AppendFloat(vec, rng.Float64(), 'f', 6, 64)
		vec = append(vec, ',')
	}
	b.SetBytes(int64(len(vec)))
	b.ReportAllocs()
	for b.Loop() {
		l := Lexer{B: vec}
		for l.I < len(vec) {
			if _, exact, err := l.Float(64); err != nil || !exact || !l.Skip(',') {
				b.Fatal(exact, err)
			}
		}
	}
}
