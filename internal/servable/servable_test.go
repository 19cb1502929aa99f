package servable

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pyruntime"
	"repro/internal/schema"
	"repro/internal/simconst"
)

func init() {
	simconst.Scale = 1000
}

func loadPkg(t *testing.T, p *Package, pythonHosted bool) *Servable {
	t.Helper()
	p.Doc.ID = "test/" + p.Doc.Publication.Name
	if err := schema.Validate(p.Doc); err != nil {
		t.Fatalf("builder produced invalid doc: %v", err)
	}
	s, err := Load(p.Doc, p.Components, pythonHosted)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNoopServable(t *testing.T) {
	s := loadPkg(t, NoopPackage(), true)
	out, err := s.Run("anything")
	if err != nil {
		t.Fatal(err)
	}
	if out != "hello world" {
		t.Fatalf("noop returned %v", out)
	}
	if s.py == nil {
		t.Fatal("should be python hosted")
	}
}

func TestCIFAR10Servable(t *testing.T) {
	pkg, err := CIFAR10Package(1)
	if err != nil {
		t.Fatal(err)
	}
	s := loadPkg(t, pkg, false)
	rng := rand.New(rand.NewSource(1))
	input := make([]any, 32*32*3)
	for i := range input {
		input[i] = rng.Float64()
	}
	out, err := s.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	preds, ok := out.([]any)
	if !ok || len(preds) != 5 {
		t.Fatalf("want 5 predictions, got %v", out)
	}
	first, ok := preds[0].(map[string]any)
	if !ok || first["label"] == "" {
		t.Fatalf("bad prediction shape: %v", preds[0])
	}
}

func TestCIFAR10WrongInputSize(t *testing.T) {
	pkg, _ := CIFAR10Package(1)
	s := loadPkg(t, pkg, false)
	if _, err := s.Run([]any{1.0, 2.0}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput, got %v", err)
	}
	if _, err := s.Run("not an array"); !errors.Is(err, ErrBadInput) {
		t.Fatalf("want ErrBadInput for string, got %v", err)
	}
}

func TestInceptionServableTop5(t *testing.T) {
	pkg, err := InceptionPackage(1)
	if err != nil {
		t.Fatal(err)
	}
	s := loadPkg(t, pkg, false)
	input := make([]float32, 64*64*3)
	rng := rand.New(rand.NewSource(2))
	for i := range input {
		input[i] = rng.Float32()
	}
	out, err := s.RunNative(input)
	if err != nil {
		t.Fatal(err)
	}
	preds := out.([]any)
	if len(preds) != 5 {
		t.Fatalf("inception should return top-5, got %d", len(preds))
	}
	label := preds[0].(map[string]any)["label"].(string)
	if !strings.HasPrefix(label, "imagenet_") {
		t.Fatalf("unexpected label %q", label)
	}
}

func TestMatminerPipelineStages(t *testing.T) {
	util := loadPkg(t, MatminerUtilPackage(), true)
	out, err := util.Run("NaCl")
	if err != nil {
		t.Fatal(err)
	}
	fractions, ok := out.(map[string]any)
	if !ok || len(fractions) != 2 {
		t.Fatalf("parse output wrong: %v", out)
	}

	feat := loadPkg(t, MatminerFeaturizePackage(), true)
	out2, err := feat.Run(fractions)
	if err != nil {
		t.Fatal(err)
	}
	features, ok := out2.([]any)
	if !ok || len(features) < 70 {
		t.Fatalf("featurize output wrong: %T len=%d", out2, len(features))
	}

	pkg, err := MatminerModelPackage(150, 3)
	if err != nil {
		t.Fatal(err)
	}
	model := loadPkg(t, pkg, true)
	out3, err := model.Run(features)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out3.(float64); !ok {
		t.Fatalf("model should return a float, got %T", out3)
	}
}

func TestMatminerUtilBadFormula(t *testing.T) {
	util := loadPkg(t, MatminerUtilPackage(), true)
	if _, err := util.Run("Xx9"); err == nil {
		t.Fatal("unknown element should error")
	}
	if _, err := util.Run(42.0); err == nil {
		t.Fatal("non-string input should error")
	}
}

func TestFeaturizeRejectsUnknownElement(t *testing.T) {
	feat := loadPkg(t, MatminerFeaturizePackage(), true)
	if _, err := feat.Run(map[string]any{"Zz": 1.0}); err == nil {
		t.Fatal("unknown element should error")
	}
	if _, err := feat.Run(map[string]any{}); err == nil {
		t.Fatal("empty composition should error")
	}
}

func TestLoadErrors(t *testing.T) {
	// Missing model component.
	doc := &schema.Document{
		ID: "x/broken",
		Publication: schema.Publication{
			Name: "broken", Title: "X", Authors: []string{"a"},
		},
		Servable: schema.Servable{
			Type:            schema.TypeKeras,
			ModelComponents: map[string]string{"weights": "w"},
			Input:           schema.DataType{Kind: "ndarray"},
			Output:          schema.DataType{Kind: "list"},
		},
	}
	if _, err := Load(doc, nil, false); !errors.Is(err, ErrMissingComponent) {
		t.Fatalf("want missing component, got %v", err)
	}

	// Corrupt model bytes.
	if _, err := Load(doc, map[string][]byte{"model": []byte("junk")}, false); err == nil {
		t.Fatal("corrupt model should fail to load")
	}

	// Unregistered python function.
	doc2 := &schema.Document{
		ID:          "x/ghost",
		Publication: schema.Publication{Name: "ghost", Title: "X", Authors: []string{"a"}},
		Servable: schema.Servable{
			Type: schema.TypePythonFunction, Entry: "ghost:fn",
			Input:  schema.DataType{Kind: "string"},
			Output: schema.DataType{Kind: "string"},
		},
	}
	if _, err := Load(doc2, nil, false); err == nil {
		t.Fatal("unregistered function should fail")
	}

	// Pipelines don't load as runners.
	doc3 := &schema.Document{
		ID:          "x/pipe",
		Publication: schema.Publication{Name: "pipe", Title: "X", Authors: []string{"a"}},
		Servable:    schema.Servable{Type: schema.TypePipeline, Steps: []string{"a", "b"}},
	}
	if _, err := Load(doc3, nil, false); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("want unsupported for pipeline, got %v", err)
	}
}

func TestToFloat32Slice(t *testing.T) {
	cases := []any{
		[]float32{1, 2},
		[]float64{1, 2},
		[]any{1.0, 2.0},
	}
	for _, c := range cases {
		out, err := ToFloat32Slice(c)
		if err != nil || len(out) != 2 || out[0] != 1 || out[1] != 2 {
			t.Fatalf("conversion failed for %T: %v %v", c, out, err)
		}
	}
	if _, err := ToFloat32Slice([]any{"nope"}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("non-numeric element should fail, got %v", err)
	}
	if _, err := ToFloat32Slice(map[string]any{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong container should fail, got %v", err)
	}
}

func TestFloatSlicesFromRawJSON(t *testing.T) {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	f32, err := ToFloat32Slice(raw(` [1, 2.5e0 ,-3] `))
	if err != nil || len(f32) != 3 || f32[0] != 1 || f32[1] != 2.5 || f32[2] != -3 {
		t.Fatalf("float32 from raw: %v %v", f32, err)
	}
	// float64 comes straight from the text, not by way of float32.
	f64, err := ToFloat64Slice(raw(`[0.1,1e-7]`))
	if err != nil || len(f64) != 2 || f64[0] != 0.1 || f64[1] != 1e-7 {
		t.Fatalf("float64 from raw: %v %v", f64, err)
	}
	for _, bad := range []string{
		`[1,"nope"]`, // a non-numeric element
		`[[1,2]]`,    // a nested array
		`[1,null]`,   // encoding/json would leave a silent zero
		`null`, `"[1]"`, `{"0":1}`, `[1,`, ``,
	} {
		if _, err := ToFloat32Slice(raw(bad)); !errors.Is(err, ErrBadInput) {
			t.Errorf("float32 %q: want ErrBadInput, got %v", bad, err)
		}
		if _, err := ToFloat64Slice(raw(bad)); !errors.Is(err, ErrBadInput) {
			t.Errorf("float64 %q: want ErrBadInput, got %v", bad, err)
		}
	}
	// A decode straight into the slice is the point: the boxed route
	// ([]any of float64, then a conversion) costs an object per number.
	vec := make([]byte, 0, 1024)
	vec = append(vec, '[')
	for i := 0; i < 64; i++ {
		if i > 0 {
			vec = append(vec, ',')
		}
		vec = strconv.AppendFloat(vec, float64(i)/64, 'f', 6, 64)
	}
	vec = append(vec, ']')
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ToFloat32Slice(json.RawMessage(vec)); err != nil {
			t.Fatal(err)
		}
	}); n > 16 {
		t.Fatalf("64 floats from raw JSON cost %.0f objects, want at most 16", n)
	}
}

// TestRunDecodesRawPayloadOnce: a json.RawMessage input is the request
// payload as the client sent it; Run and RunNative decode it into what
// the runner takes and answer as they do for the decoded value, and the
// Python host's re-executions of the function body see that value, not
// the bytes.
func TestRunDecodesRawPayloadOnce(t *testing.T) {
	pkg, _ := CIFAR10Package(5)
	native := loadPkg(t, pkg, false)
	input := make([]float32, 32*32*3)
	for i := range input {
		input[i] = float32(i%7) / 7
	}
	data, _ := json.Marshal(input)
	want, err := native.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(any) (any, error){"Run": native.Run, "RunNative": native.RunNative} {
		got, err := run(json.RawMessage(data))
		if err != nil {
			t.Fatalf("%s on raw input: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s on raw input = %v, want %v", name, got, want)
		}
	}
	if _, err := native.Run(json.RawMessage(`[1,"x"]`)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("a payload the runner cannot take should be ErrBadInput, got %v", err)
	}

	var seen []any
	pyruntime.Register("test:see", func(arg any) (any, error) {
		seen = append(seen, arg)
		return arg, nil
	})
	doc := NoopPackage().Doc
	doc.Servable.Entry = "test:see"
	hosted, err := Load(doc, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hosted.Close)
	out, err := hosted.Run(json.RawMessage(`{"k":[1,"v"]}`))
	if err != nil {
		t.Fatal(err)
	}
	value := map[string]any{"k": []any{1.0, "v"}}
	if !reflect.DeepEqual(out, value) {
		t.Fatalf("python function returned %v, want %v", out, value)
	}
	if len(seen) == 0 {
		t.Fatal("function never ran")
	}
	for _, arg := range seen {
		if !reflect.DeepEqual(arg, value) {
			t.Fatalf("function body saw %T %v, want the decoded value", arg, arg)
		}
	}
	// An absent payload is None.
	if out, err := hosted.Run(json.RawMessage(nil)); err != nil || out != nil {
		t.Fatalf("absent payload: %v %v", out, err)
	}
}

func TestTomographyFunctions(t *testing.T) {
	RegisterBuiltins()
	doc := &schema.Document{
		ID:          "aps/center",
		Publication: schema.Publication{Name: "center", Title: "Center finder", Authors: []string{"Chard, R."}},
		Servable: schema.Servable{
			Type: schema.TypePythonFunction, Entry: "tomography:find_center",
			Input:  schema.DataType{Kind: "list"},
			Output: schema.DataType{Kind: "dict"},
		},
	}
	s, err := Load(doc, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Slice 1 has much higher gradient energy -> should be the center.
	flat := []any{1.0, 1.0, 1.0, 1.0}
	sharp := []any{0.0, 9.0, 0.0, 9.0}
	out, err := s.Run([]any{flat, sharp, flat})
	if err != nil {
		t.Fatal(err)
	}
	res := out.(map[string]any)
	if res["center_slice"] != 1 {
		t.Fatalf("center should be slice 1: %v", res)
	}

	// Segmentation.
	doc.Servable.Entry = "tomography:segment"
	doc.ID = "aps/segment"
	seg, err := Load(doc, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	out2, err := seg.Run([]any{0.0, 0.1, 0.9, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	m := out2.(map[string]any)
	if m["cell_fraction"] != 0.5 {
		t.Fatalf("segmentation fraction wrong: %v", m)
	}
}

func TestPaperServables(t *testing.T) {
	pkgs, err := PaperServables(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"noop", "inception", "cifar10", "matminer-util", "matminer-featurize", "matminer-model"}
	for _, name := range want {
		pkg, ok := pkgs[name]
		if !ok {
			t.Fatalf("missing servable %s", name)
		}
		if err := schema.Validate(pkg.Doc); err != nil {
			t.Fatalf("%s: invalid doc: %v", name, err)
		}
	}
}

func TestPythonHostedAddsNoSemanticChange(t *testing.T) {
	pkg, _ := CIFAR10Package(5)
	native := loadPkg(t, pkg, false)
	pkg2, _ := CIFAR10Package(5)
	hosted := loadPkg(t, pkg2, true)

	input := make([]float32, 32*32*3)
	for i := range input {
		input[i] = float32(i%7) / 7
	}
	a, err := native.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hosted.Run(input)
	if err != nil {
		t.Fatal(err)
	}
	la := a.([]any)[0].(map[string]any)["label"]
	lb := b.([]any)[0].(map[string]any)["label"]
	if la != lb {
		t.Fatalf("hosting must not change results: %v vs %v", la, lb)
	}
}
