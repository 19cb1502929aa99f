package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b float32) bool { return math.Abs(float64(a-b)) < 1e-4 }

func TestNewAndFromData(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 {
		t.Fatalf("len = %d", tt.Len())
	}
	d := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if d.Len() != 6 || d.Shape[0] != 2 {
		t.Fatalf("FromData wrong: %v", d.Shape)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched FromData should panic")
		}
	}()
	FromData([]float32{1, 2}, 3)
}

func TestNewInvalidDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero dim should panic")
		}
	}()
	New(0, 3)
}

func TestReLU(t *testing.T) {
	a := FromData([]float32{-1, 0, 2, -3.5}, 4)
	a.ReLU()
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("relu wrong at %d: %v", i, a.Data)
		}
	}
}

func TestAddBiasAndScale(t *testing.T) {
	a := New(1, 2, 2) // HWC with 2 channels
	a.AddBias([]float32{1, 10})
	want := []float32{1, 10, 1, 10}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("bias wrong: %v", a.Data)
		}
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float32{1, 2, 3})
	var sum float32
	for _, v := range p {
		sum += v
	}
	if !almostEq(sum, 1) {
		t.Fatalf("softmax should sum to 1, got %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax should be monotone: %v", p)
	}
	// Stability with large values.
	p = Softmax([]float32{1000, 1001})
	if math.IsNaN(float64(p[0])) || !almostEq(p[0]+p[1], 1) {
		t.Fatalf("softmax unstable: %v", p)
	}
	if len(Softmax(nil)) != 0 {
		t.Fatal("empty softmax should be empty")
	}
}

// Property: softmax output is a probability distribution for any input.
func TestSoftmaxProperty(t *testing.T) {
	f := func(in []float32) bool {
		for i := range in {
			if math.IsNaN(float64(in[i])) || math.IsInf(float64(in[i]), 0) {
				in[i] = 0
			}
		}
		p := Softmax(in)
		if len(p) != len(in) {
			return false
		}
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(float64(v)) {
				return false
			}
			sum += float64(v)
		}
		return len(in) == 0 || math.Abs(sum-1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestArgTopK(t *testing.T) {
	v := []float32{0.1, 0.9, 0.5, 0.7, 0.2}
	top := ArgTopK(v, 3)
	want := []int{1, 3, 2}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("topk wrong: %v", top)
		}
	}
	if len(ArgTopK(v, 10)) != 5 {
		t.Fatal("k beyond length should clamp")
	}
}

func TestMatVec(t *testing.T) {
	// W = [[1,2],[3,4],[5,6]] x = [1,1] -> [3,7,11]
	w := []float32{1, 2, 3, 4, 5, 6}
	y := MatVec(w, 3, 2, []float32{1, 1})
	want := []float32{3, 7, 11}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("matvec wrong: %v", y)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch should panic")
		}
	}()
	MatVec(w, 3, 2, []float32{1})
}

func TestConv2DIdentity(t *testing.T) {
	// 1x1 kernel with single weight 1.0 is identity.
	in := New(4, 4, 1)
	rng := rand.New(rand.NewSource(7))
	in.FillRandom(rng, 1)
	k := FromData([]float32{1}, 1, 1, 1, 1)
	out := Conv2D(in, k, 1, false)
	if !slices.Equal(out.Shape, in.Shape) {
		t.Fatalf("identity conv changed shape: %v", out.Shape)
	}
	for i := range in.Data {
		if !almostEq(out.Data[i], in.Data[i]) {
			t.Fatal("identity conv changed values")
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad: sliding sums.
	in := FromData([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 3, 3, 1)
	k := FromData([]float32{1, 1, 1, 1}, 2, 2, 1, 1)
	out := Conv2D(in, k, 1, false)
	want := []float32{12, 16, 24, 28}
	if out.Shape[0] != 2 || out.Shape[1] != 2 {
		t.Fatalf("conv shape wrong: %v", out.Shape)
	}
	for i := range want {
		if !almostEq(out.Data[i], want[i]) {
			t.Fatalf("conv values wrong: %v want %v", out.Data, want)
		}
	}
}

func TestConv2DSamePadding(t *testing.T) {
	in := New(8, 8, 3)
	k := New(3, 3, 3, 16)
	out := Conv2D(in, k, 1, true)
	if out.Shape[0] != 8 || out.Shape[1] != 8 || out.Shape[2] != 16 {
		t.Fatalf("same-padding conv shape wrong: %v", out.Shape)
	}
}

func TestConv2DStride(t *testing.T) {
	in := New(8, 8, 1)
	k := New(3, 3, 1, 4)
	out := Conv2D(in, k, 2, true)
	if out.Shape[0] != 4 || out.Shape[1] != 4 {
		t.Fatalf("strided conv shape wrong: %v", out.Shape)
	}
}

func TestConv2DChannelMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channel mismatch should panic")
		}
	}()
	Conv2D(New(4, 4, 3), New(3, 3, 1, 8), 1, true)
}

// Property: convolution is linear — conv(a*x) == a*conv(x).
// scaled returns a copy of t with every element multiplied by f.
func scaled(t *Tensor, f float32) *Tensor {
	out := FromData(slices.Clone(t.Data), t.Shape...)
	for i := range out.Data {
		out.Data[i] *= f
	}
	return out
}

func TestConv2DLinearityProperty(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := float32(scaleRaw%7) + 0.5
		in := New(6, 6, 2)
		in.FillRandom(rng, 1)
		k := New(3, 3, 2, 3)
		k.FillRandom(rng, 1)

		a := Conv2D(scaled(in, scale), k, 1, true)
		b := scaled(Conv2D(in, k, 1, true), scale)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 4, 4, 1)
	out := MaxPool2D(in, 2, 2)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("maxpool wrong: %v", out.Data)
		}
	}
}

func TestAvgPool2D(t *testing.T) {
	in := FromData([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 4, 4, 1)
	out := AvgPool2D(in, 2, 2)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if !almostEq(out.Data[i], want[i]) {
			t.Fatalf("avgpool wrong: %v", out.Data)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := New(2, 2, 2)
	// channel 0 = 1, channel 1 = 2 everywhere
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			in.Set(y, x, 0, 1)
			in.Set(y, x, 1, 2)
		}
	}
	out := GlobalAvgPool(in)
	if !almostEq(out[0], 1) || !almostEq(out[1], 2) {
		t.Fatalf("gap wrong: %v", out)
	}
}

func TestConcatChannels(t *testing.T) {
	a := New(2, 2, 1)
	b := New(2, 2, 2)
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range b.Data {
		b.Data[i] = 2
	}
	out := ConcatChannels(a, b)
	if out.Shape[2] != 3 {
		t.Fatalf("concat channels wrong: %v", out.Shape)
	}
	if out.At(0, 0, 0) != 1 || out.At(0, 0, 1) != 2 || out.At(1, 1, 2) != 2 {
		t.Fatalf("concat layout wrong: %v", out.Data)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("spatial mismatch should panic")
		}
	}()
	ConcatChannels(a, New(3, 3, 1))
}

func BenchmarkConv2D32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := New(32, 32, 3)
	in.FillRandom(rng, 1)
	k := New(3, 3, 3, 32)
	k.FillRandom(rng, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(in, k, 1, true)
	}
}
