package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ml/tensor"
)

// clone deep-copies a tensor.
func clone(t *tensor.Tensor) *tensor.Tensor {
	return tensor.FromData(slices.Clone(t.Data), t.Shape...)
}

func randInput(shape []int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	in := tensor.New(shape...)
	in.FillRandom(rng, 1)
	return in
}

func TestCIFAR10ForwardShape(t *testing.T) {
	m := NewCIFAR10(1)
	out := m.Forward(randInput(m.InputShape, 2))
	if out.Len() != 10 {
		t.Fatalf("CIFAR-10 should emit 10 logits, got %d", out.Len())
	}
}

func TestCIFAR10PredictTopK(t *testing.T) {
	m := NewCIFAR10(1)
	preds := m.Predict(randInput(m.InputShape, 3), 5)
	if len(preds) != 5 {
		t.Fatalf("want 5 predictions, got %d", len(preds))
	}
	// Probabilities descend and are valid.
	for i, p := range preds {
		if p.Probability < 0 || p.Probability > 1 {
			t.Fatalf("invalid probability %v", p.Probability)
		}
		if i > 0 && preds[i].Probability > preds[i-1].Probability {
			t.Fatal("predictions not sorted by probability")
		}
		if p.Label == "" {
			t.Fatal("labels should be set")
		}
	}
}

func TestInceptionForwardShape(t *testing.T) {
	if testing.Short() {
		t.Skip("inception forward is heavy")
	}
	m := NewInception(1)
	out := m.Forward(randInput(m.InputShape, 2))
	if out.Len() != 1000 {
		t.Fatalf("Inception should emit 1000 logits, got %d", out.Len())
	}
	preds := m.Predict(randInput(m.InputShape, 3), 5)
	if len(preds) != 5 {
		t.Fatal("Inception should emit top-5, as the paper's servable does")
	}
}

// numParams counts trainable parameters.
func numParams(m *Model) int {
	n := 0
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *Conv:
			n += v.Kernel.Len() + len(v.Bias)
		case *Dense:
			n += len(v.W) + len(v.B)
		case *Inception:
			for _, c := range allConvs(v) {
				n += c.Kernel.Len() + len(c.Bias)
			}
		}
	}
	return n
}

func allConvs(m *Inception) []*Conv {
	out := []*Conv{m.Tower1, m.TowerPool}
	out = append(out, m.Tower2...)
	out = append(out, m.Tower3...)
	return out
}

func TestInceptionHeavierThanCIFAR(t *testing.T) {
	ci := NewCIFAR10(1)
	in := NewInception(1)
	if numParams(in) <= numParams(ci) {
		t.Fatalf("Inception (%d params) should outweigh CIFAR-10 (%d)", numParams(in), numParams(ci))
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := NewCIFAR10(42)
	b := NewCIFAR10(42)
	in := randInput(a.InputShape, 9)
	outA := a.Forward(clone(in))
	outB := b.Forward(clone(in))
	for i := range outA.Data {
		if outA.Data[i] != outB.Data[i] {
			t.Fatal("same seed should give identical models")
		}
	}
	c := NewCIFAR10(43)
	outC := c.Forward(clone(in))
	same := true
	for i := range outA.Data {
		if outA.Data[i] != outC.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestForwardDoesNotMutateInput(t *testing.T) {
	m := NewCIFAR10(1)
	in := randInput(m.InputShape, 4)
	orig := clone(in)
	m.Forward(in)
	for i := range in.Data {
		if in.Data[i] != orig.Data[i] {
			t.Fatal("Forward must not mutate its input (shared across replicas)")
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := NewCIFAR10(7)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ModelName != "cifar10" || len(back.Labels) != 10 {
		t.Fatal("metadata lost in round trip")
	}
	in := randInput(m.InputShape, 5)
	outA := m.Forward(clone(in))
	outB := back.Forward(clone(in))
	for i := range outA.Data {
		if outA.Data[i] != outB.Data[i] {
			t.Fatal("decoded model differs from original")
		}
	}
}

func TestEncodeDecodeInception(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	m := NewInception(7)
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if numParams(back) != numParams(m) {
		t.Fatalf("params differ: %d vs %d", numParams(back), numParams(m))
	}
	in := randInput(m.InputShape, 5)
	outA := m.Forward(clone(in))
	outB := back.Forward(clone(in))
	for i := range outA.Data {
		if outA.Data[i] != outB.Data[i] {
			t.Fatal("decoded inception differs")
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a model")); err == nil {
		t.Fatal("garbage should not decode")
	}
}

func TestInceptionModuleShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mod := newInceptionModule("m", rng, 48, 16, 24, 32, 8, 16, 16)
	in := tensor.New(24, 24, 48)
	in.FillRandom(rng, 1)
	out := mod.Forward(in)
	if out.Shape[0] != 24 || out.Shape[1] != 24 {
		t.Fatalf("inception module should preserve spatial dims: %v", out.Shape)
	}
	if out.Shape[2] != 16+32+16+16 {
		t.Fatalf("concat channels wrong: %v", out.Shape)
	}
}

func TestPredictFiniteOutputs(t *testing.T) {
	// Deep stacks with bad init produce NaN/Inf; guard the init scheme.
	m := NewCIFAR10(123)
	preds := m.Predict(randInput(m.InputShape, 77), 10)
	var sum float64
	for _, p := range preds {
		if math.IsNaN(float64(p.Probability)) || math.IsInf(float64(p.Probability), 0) {
			t.Fatal("non-finite probabilities")
		}
		sum += float64(p.Probability)
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("top-10 of 10 classes should sum to 1, got %v", sum)
	}
}

func TestDenseInputMismatchPanics(t *testing.T) {
	d := &Dense{LayerName: "fc", In: 4, Out: 2, W: make([]float32, 8), B: make([]float32, 2)}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	d.Forward(tensor.New(3))
}

func BenchmarkCIFAR10Inference(b *testing.B) {
	m := NewCIFAR10(1)
	in := randInput(m.InputShape, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(in)
	}
}

func BenchmarkInceptionInference(b *testing.B) {
	m := NewInception(1)
	in := randInput(m.InputShape, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(in)
	}
}
