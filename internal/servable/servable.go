// Package servable implements DLHub's central abstraction (§IV-A):
// "DLHub converts all published models into executable servables ... an
// executable DLHub container that implements a standard execution
// interface and comprises a complete model package that includes the
// trained model, model components (e.g., training weights,
// hyperparameters), and any dependencies."
//
// A Servable couples a schema.Document with a Runner built from the
// uploaded model components. Runners exist for every supported model
// type: Keras/TensorFlow (the nn runtime), scikit-learn (the rf
// runtime), arbitrary Python functions (the pyruntime bridge), the
// baseline noop, and multi-step pipelines. A Servable may be hosted
// natively (the C++-speed path used by the TF-Serving executor) or
// inside a simulated Python interpreter (the Parsl/IPP, SageMaker-Flask
// and Clipper paths), which adds the calibrated interpreter costs.
package servable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/ml/nn"
	"repro/internal/ml/rf"
	"repro/internal/ml/tensor"
	"repro/internal/pyruntime"
	"repro/internal/schema"
)

// Errors.
var (
	ErrMissingComponent = errors.New("servable: missing model component")
	ErrBadInput         = errors.New("servable: bad input")
	ErrUnsupportedType  = errors.New("servable: unsupported model type")
)

// Runner executes the model natively.
type Runner interface {
	// Decode turns a request payload, still the JSON bytes the client
	// sent, into the value Run takes.
	Decode(raw json.RawMessage) (any, error)
	// Run performs one execution on a JSON-compatible input.
	Run(input any) (any, error)
	// Close releases resources.
	Close()
}

// Servable is a loaded, runnable model instance — the in-container
// object behind the standard execution interface.
type Servable struct {
	Doc    *schema.Document
	runner Runner
	py     *pyruntime.Interpreter
	pyName string
}

// Load builds a Servable from its publication document and uploaded
// components. pythonHosted selects the simulated-CPython host (true for
// the Parsl/Flask/Clipper paths, false for TF-Serving).
func Load(doc *schema.Document, components map[string][]byte, pythonHosted bool) (*Servable, error) {
	runner, err := newRunner(doc, components)
	if err != nil {
		return nil, err
	}
	s := &Servable{Doc: doc, runner: runner}
	if pythonHosted {
		s.py = pyruntime.New()
		s.pyName = "servable/" + doc.ID + ":run"
		pyruntime.Register(s.pyName, runner.Run)
		s.py.Start()
		s.py.Import("dlhub_sdk")
	}
	return s, nil
}

// Run executes the servable through its host (native or Python).
//
// A json.RawMessage input is a request payload nothing upstream has
// looked inside: it is decoded here, once, into the type the runner
// takes, and nothing of it is retained — the caller may reuse the bytes
// when Run returns. The decode comes before the interpreter call, which
// re-executes the function body to model interpreted speed and must not
// repeat it. Any other input is a value already and passes through.
func (s *Servable) Run(input any) (any, error) {
	input, err := s.decode(input)
	if err != nil {
		return nil, err
	}
	if s.py != nil {
		return s.py.Call(s.pyName, input)
	}
	return s.runner.Run(input)
}

// RunNative bypasses the Python host — used by the TF-Serving executor,
// whose C++ core runs the same graph without interpreter overhead. It
// decodes a json.RawMessage input like Run.
func (s *Servable) RunNative(input any) (any, error) {
	input, err := s.decode(input)
	if err != nil {
		return nil, err
	}
	return s.runner.Run(input)
}

func (s *Servable) decode(input any) (any, error) {
	raw, ok := input.(json.RawMessage)
	if !ok {
		return input, nil
	}
	return s.runner.Decode(raw)
}

// Close shuts down the runner and interpreter.
func (s *Servable) Close() {
	if s.py != nil {
		s.py.Stop()
	}
	s.runner.Close()
}

func newRunner(doc *schema.Document, components map[string][]byte) (Runner, error) {
	switch doc.Servable.Type {
	case schema.TypeKeras, schema.TypeTensorFlow:
		data, ok := components["model"]
		if !ok {
			return nil, fmt.Errorf("%w: %q needs \"model\"", ErrMissingComponent, doc.ID)
		}
		m, err := nn.Decode(data)
		if err != nil {
			return nil, err
		}
		return &nnRunner{model: m}, nil
	case schema.TypeScikitLearn:
		data, ok := components["model"]
		if !ok {
			return nil, fmt.Errorf("%w: %q needs \"model\"", ErrMissingComponent, doc.ID)
		}
		f, err := rf.Decode(data)
		if err != nil {
			return nil, err
		}
		return &rfRunner{forest: f}, nil
	case schema.TypePythonFunction:
		if !pyruntime.Registered(doc.Servable.Entry) {
			return nil, fmt.Errorf("servable: python function %q not importable", doc.Servable.Entry)
		}
		return &pyFuncRunner{entry: doc.Servable.Entry}, nil
	case schema.TypePipeline:
		return nil, fmt.Errorf("%w: pipelines are executed by the Management Service, not loaded as runners", ErrUnsupportedType)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedType, doc.Servable.Type)
	}
}

// --- input conversion ------------------------------------------------------

// ToFloat32Slice converts JSON-ish numeric arrays — or the JSON text of
// one — into a float32 vector.
func ToFloat32Slice(v any) ([]float32, error) {
	switch in := v.(type) {
	case []float32:
		return in, nil
	case json.RawMessage:
		return floatsFromJSON[float32](in)
	case []float64:
		out := make([]float32, len(in))
		for i, x := range in {
			out[i] = float32(x)
		}
		return out, nil
	case []any:
		out := make([]float32, len(in))
		for i, x := range in {
			f, err := toFloat(x)
			if err != nil {
				return nil, fmt.Errorf("%w: element %d: %v", ErrBadInput, i, err)
			}
			out[i] = f
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: cannot convert %T to float vector", ErrBadInput, v)
	}
}

func toFloat(x any) (float32, error) {
	switch n := x.(type) {
	case float64:
		return float32(n), nil
	case float32:
		return n, nil
	case int:
		return float32(n), nil
	case json.Number:
		f, err := strconv.ParseFloat(string(n), 64)
		return float32(f), err
	default:
		return 0, fmt.Errorf("non-numeric %T", x)
	}
}

// floatsFromJSON decodes a JSON array of numbers straight into a float
// slice, without building a []any of boxed numbers first.
func floatsFromJSON[F float32 | float64](raw json.RawMessage) ([]F, error) {
	// encoding/json leaves a float at zero for a null element (and the
	// slice nil for a null document) without an error; in an array of
	// numbers only null spells an 'n'.
	if bytes.IndexByte(raw, 'n') >= 0 {
		return nil, fmt.Errorf("%w: not an array of numbers", ErrBadInput)
	}
	var out []F
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return out, nil
}

// ToFloat64Slice converts JSON-ish numeric arrays, or the JSON text of
// one, into float64.
func ToFloat64Slice(v any) ([]float64, error) {
	if raw, ok := v.(json.RawMessage); ok {
		return floatsFromJSON[float64](raw)
	}
	f32, err := ToFloat32Slice(v)
	if err != nil {
		// Retry natively for []float64 precision.
		if in, ok := v.([]float64); ok {
			return in, nil
		}
		return nil, err
	}
	if in, ok := v.([]float64); ok {
		return in, nil
	}
	out := make([]float64, len(f32))
	for i, x := range f32 {
		out[i] = float64(x)
	}
	return out, nil
}

// --- runners ----------------------------------------------------------------

// nnRunner serves Keras/TensorFlow-type models via the nn runtime.
type nnRunner struct{ model *nn.Model }

func (r *nnRunner) Decode(raw json.RawMessage) (any, error) { return ToFloat32Slice(raw) }

func (r *nnRunner) Run(input any) (any, error) {
	vec, err := ToFloat32Slice(input)
	if err != nil {
		return nil, err
	}
	want := 1
	for _, d := range r.model.InputShape {
		want *= d
	}
	if len(vec) != want {
		return nil, fmt.Errorf("%w: model %s wants %d values, got %d", ErrBadInput, r.model.ModelName, want, len(vec))
	}
	in := tensor.FromData(vec, r.model.InputShape...)
	preds := r.model.Predict(in, 5)
	out := make([]any, len(preds))
	for i, p := range preds {
		out[i] = map[string]any{"label": p.Label, "probability": float64(p.Probability)}
	}
	return out, nil
}

func (r *nnRunner) Close() {}

// rfRunner serves scikit-learn-type models via the rf runtime.
type rfRunner struct{ forest *rf.Forest }

func (r *rfRunner) Decode(raw json.RawMessage) (any, error) { return ToFloat64Slice(raw) }

func (r *rfRunner) Run(input any) (any, error) {
	vec, err := ToFloat64Slice(input)
	if err != nil {
		return nil, err
	}
	pred, err := r.forest.Predict(vec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return pred, nil
}

func (r *rfRunner) Close() {}

// pyFuncRunner serves arbitrary registered Python functions.
type pyFuncRunner struct{ entry string }

// Decode builds the JSON-ish value (map, slice, string, float64, bool,
// nil) a Python function receives; an absent payload is None.
func (r *pyFuncRunner) Decode(raw json.RawMessage) (any, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return v, nil
}

func (r *pyFuncRunner) Run(input any) (any, error) {
	f, ok := pyruntime.Lookup(r.entry)
	if !ok {
		return nil, fmt.Errorf("servable: function %q vanished", r.entry)
	}
	return f(input)
}

func (r *pyFuncRunner) Close() {}
