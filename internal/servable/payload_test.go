package servable

import (
	"encoding/json"
	"errors"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/jsonlex"
	"repro/internal/matsci"
)

// payloadSeeds are the inputs the differential targets start from: the
// corners where a hand-written reader and encoding/json could part.
var payloadSeeds = []string{
	`null`, `true`, `false`, `0`, `-0`, `-0.0e+0`, `1.5E-3`, `123456789012345678901234567890`,
	`1e400`, `-1e400`, `1e-400`, `3.4e39`, `16777217`, `0.1`,
	`01`, `-`, `1.`, `.5`, `+1`, `1e`, `1e+`, `--1`, `0x10`, `Infinity`, `NaN`,
	`""`, `"plain"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"é中"`, `"\u00e9\u4E2D"`,
	`"😀"`, `"\ud83d"`, `"\ude00x"`, `"\ud83dx\ude00"`,
	"\"\xff\xfe\"", "\"a\xc3\"", "\"\xed\xa0\x80\"", "\"tab\there\"", `"\x"`, `"\u12"`, `"abc`, `"\`,
	`[]`, `[ ]`, `[1,]`, `[,1]`, `[1 2]`, `[[[]]]`, `[1,[2,[3,"x"]],{"k":null}]`,
	`{}`, `{"a":1,"a":2}`, `{"a":1,}`, `{a:1}`, `{"a" 1}`, `{"a":}`, `{"":[]}`, `{"\u0061":1,"a":2}`,
	` [1] `, "\t{\"k\":\r\n\"v\"}\n", `1 2`, `[1]x`, `{} {}`, `nul`, `nulll`, `tru`, `falsey`,
	"", " ", "[\"\x00\"]", "\"\x1f\"", "\"\x7f\"",
	// The edges of the lexer's exact path: 2^53, 19 and 20 significant
	// digits (leading zeros not counted), 22 and 23 fraction digits,
	// 1e22 and 1e23, negative zeros, and an exponent of 30 digits.
	`9007199254740992`, `9007199254740993`, `1234567890123456789`, `12345678901234567890`,
	`0.000000000000000000123`, `0.1234567890123456789`, `0.12345678901234567890`,
	`0.0000000000000000000001`, `0.00000000000000000000001`, `1e22`, `1e23`, `1.5e-3`, `5e-324`,
	`-0.0`, `-0e5`, `[-0,0,-0.0]`, `{"a":-0}`,
	`1e123456789012345678901234567890`, `0e123456789012345678901234567890`, `1e-123456789012345678901234567890`,
}

// FuzzDecodePayload checks the one-pass reader against
// json.Unmarshal into an `any`: identical values, every number bit for
// bit, and an error exactly when encoding/json errors.
func FuzzDecodePayload(f *testing.F) {
	for _, s := range payloadSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var want any
		wantErr := json.Unmarshal(raw, &want)
		got, err := decodePayload(raw)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: reader error %v, encoding/json error %v", raw, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("%q: error %v does not wrap ErrBadInput", raw, err)
			}
			return
		}
		if !identical(got, want) {
			t.Fatalf("%q: reader %#v, encoding/json %#v", raw, got, want)
		}
	})
}

// identical is reflect.DeepEqual with every number compared bit for
// bit, which tells -0 from 0.
func identical(a, b any) bool {
	switch a := a.(type) {
	case float64:
		b, ok := b.(float64)
		return ok && math.Float64bits(a) == math.Float64bits(b)
	case []any:
		b, ok := b.([]any)
		return ok && (a == nil) == (b == nil) && slices.EqualFunc(a, b, identical)
	case map[string]any:
		b, ok := b.(map[string]any)
		return ok && (a == nil) == (b == nil) && maps.EqualFunc(a, b, identical)
	}
	return reflect.DeepEqual(a, b)
}

// FuzzFloatsFromJSON checks floatsFromJSON against json.Unmarshal into
// []float32 and []float64: an error exactly when that errors or leaves
// a null as a silent nil or zero, otherwise equal slices, every number
// bit for bit.
func FuzzFloatsFromJSON(f *testing.F) {
	for _, s := range append(payloadSeeds, `[1,null]`, `[0.1,1e-7,-0,3.4e38]`, `[3.5e38]`, `[1e-46]`, `[[1]]`, `["1"]`, `[1,`,
		`[16777216,16777217,0.1,3.4028235e38]`, `[-0,-0.0,-0e5,1e10,1e11,1e-10,1e-11]`) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkFloats[float32](t, raw)
		checkFloats[float64](t, raw)
	})
}

func checkFloats[F float32 | float64](t *testing.T, raw []byte) {
	t.Helper()
	var want []*F // a null, document or element, reads as a nil pointer
	wantErr := json.Unmarshal(raw, &want) != nil || want == nil || slices.Contains(want, nil)
	got, err := floatsFromJSON[F](raw)
	if (err != nil) != wantErr {
		t.Fatalf("%T %q: error %v, want an error: %v", F(0), raw, err, wantErr)
	}
	if err != nil {
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("%q: error %v does not wrap ErrBadInput", raw, err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%T %q: %d numbers, encoding/json %d", F(0), raw, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], *want[i]) {
			t.Fatalf("%T %q: element %d is %v, encoding/json %v", F(0), raw, i, got[i], *want[i])
		}
	}
}

// sameBits compares two floats bit for bit, at their own precision.
func sameBits[F float32 | float64](a, b F) bool {
	if a, ok := any(a).(float32); ok {
		return math.Float32bits(a) == math.Float32bits(any(b).(float32))
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func TestDecodePayloadDepth(t *testing.T) {
	nested := func(n int) []byte {
		return []byte(strings.Repeat("[", n) + strings.Repeat("]", n))
	}
	v, err := decodePayload(nested(jsonlex.MaxDepth))
	if err != nil {
		t.Fatalf("%d nested arrays: %v", jsonlex.MaxDepth, err)
	}
	for d := 1; d < jsonlex.MaxDepth; d++ {
		v = v.([]any)[0]
	}
	if inner, ok := v.([]any); !ok || inner == nil || len(inner) != 0 {
		t.Fatalf("innermost value %#v, want an empty non-nil slice", v)
	}
	for _, raw := range [][]byte{nested(jsonlex.MaxDepth + 1), []byte(strings.Repeat(`{"k":`, jsonlex.MaxDepth+1))} {
		if _, err := decodePayload(raw); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%d levels: want ErrBadInput, got %v", jsonlex.MaxDepth+1, err)
		}
		var sink any
		if json.Unmarshal(raw, &sink) == nil {
			t.Fatal("encoding/json accepts the same nesting; the bound is wrong")
		}
	}
}

// TestDecodeRetainsNothing: the pod hands Run its pooled rpc frame and
// reuses it when Run returns, so the decoded value must share no byte
// with the input.
func TestDecodeRetainsNothing(t *testing.T) {
	raw := []byte(`{"key":["plain","éscaped",1.5,true,null,{"k":"v"}],"x":"yz"}`)
	got, err := decodePayload(raw)
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		raw[i] = 'Z'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the input was overwritten the value reads %#v, want %#v", got, want)
	}
	// Nor does a pooled reader hold on to a decoded value: its stack of
	// array elements is empty and cleared when a decode returns, failed
	// or not, and a stack grown past maxStack is dropped.
	long := "[" + strings.Repeat("0,", maxStack) + "0]"
	for _, in := range []string{`[[1,2,[3,"x"]],["y"]]`, `[[1,2,[3,"x"`, long} {
		decodePayload([]byte(in))
		r := readers.Get().(*reader)
		if r.B != nil || len(r.elems) != 0 || cap(r.elems) > maxStack || slices.ContainsFunc(r.elems[:cap(r.elems)], func(v any) bool { return v != nil }) {
			t.Fatalf("after %.20s a pooled reader keeps %d bytes of input and %d elements: %v", in, len(r.B), cap(r.elems), r.elems[:min(cap(r.elems), 8)])
		}
		readers.Put(r)
	}
}

// TestDecodePayloadConcurrent: a pod serves requests in parallel and the
// readers come from one pool; no decode sees another's stack.
func TestDecodePayloadConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw := []byte(`[[` + strconv.Itoa(g) + `,"x"],[` + strings.Repeat(`[],`, g) + `{"g":` + strconv.Itoa(g) + `}]]`)
			var want any
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 500; i++ {
				if got, err := decodePayload(raw); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: %#v, %v; want %#v", g, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// floatVector is one batch item of the benchmark's shape: 64 floats,
// six decimals each.
func floatVector() []byte {
	rng := rand.New(rand.NewSource(1))
	vec := []byte{'['}
	for i := 0; i < 64; i++ {
		if i > 0 {
			vec = append(vec, ',')
		}
		vec = strconv.AppendFloat(vec, rng.Float64(), 'f', 6, 64)
	}
	return append(vec, ']')
}

// TestDecodePayloadAllocs: 64 numbers cost one object each (the boxed
// float64), plus the exact-size array that holds them and its slice
// header boxed as an `any`; the element stack is reused. encoding/json
// made 139. Tightened to the measurement; never raise it.
func TestDecodePayloadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	vec := floatVector()
	run := &pyFuncRunner{}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := run.Decode(vec); err != nil {
			t.Fatal(err)
		}
	}); n > 66 {
		t.Fatalf("a 64-number array cost %.0f objects, want at most 66", n)
	}
}

func BenchmarkDecodePayload(b *testing.B) {
	vec := floatVector()
	run := &pyFuncRunner{}
	b.SetBytes(int64(len(vec)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := run.Decode(vec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFloat64KeepsPrecision: a float64 input is never rounded through
// float32 on its way to a function that works in float64.
func TestFloat64KeepsPrecision(t *testing.T) {
	for _, in := range []any{[]any{0.1, 16777217.0}, json.RawMessage(`[0.1,16777217]`), []float64{0.1, 16777217}} {
		got, err := ToFloat64Slice(in)
		if err != nil || !reflect.DeepEqual(got, []float64{0.1, 16777217}) {
			t.Fatalf("ToFloat64Slice(%T) = %v, %v; want [0.1 16777217]", in, got, err)
		}
	}
	feat := loadPkg(t, MatminerFeaturizePackage(), true)
	for _, comp := range []matsci.Composition{{"Fe": 0.1, "O": 0.9}, {"Fe": 16777217, "O": 1}} {
		in := map[string]any{}
		for sym, f := range comp {
			in[sym] = f
		}
		out, err := feat.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		want := matsci.Featurize(comp)
		for i, f := range out.([]any) {
			if f != want[i] {
				t.Fatalf("%v: feature %d is %v, want %v (a fraction went through float32)", comp, i, f, want[i])
			}
		}
	}
}
