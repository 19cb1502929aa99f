package jsonlex

import (
	"bytes"
	"encoding/json"
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
