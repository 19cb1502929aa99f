package rf

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// depth returns the maximum depth (root = 1).
func depth(t *Tree) int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return 1
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0)
}

// r2 computes the coefficient of determination on a test set.
func r2(f *Forest, x [][]float64, y []float64) (float64, error) {
	pred := make([]float64, len(x))
	for i := range x {
		v, err := f.Predict(x[i])
		if err != nil {
			return 0, err
		}
		pred[i] = v
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i := range y {
		ssRes += (y[i] - pred[i]) * (y[i] - pred[i])
		ssTot += (y[i] - mean) * (y[i] - mean)
	}
	if ssTot == 0 {
		return 0, nil
	}
	return 1 - ssRes/ssTot, nil
}

// synth generates y = 3*x0 - 2*x1 + noise over random features.
func synth(n, nf int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		x[i] = row
		y[i] = 3*row[0] - 2*row[1] + rng.NormFloat64()*noise
	}
	return x, y
}

func TestTrainAndPredictLearnsSignal(t *testing.T) {
	x, y := synth(600, 5, 0.05, 1)
	f, err := Train(x, y, Config{Trees: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	xt, yt := synth(200, 5, 0.05, 2)
	r2, err := r2(f, xt, yt)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.7 {
		t.Fatalf("forest failed to learn linear signal: R2=%v", r2)
	}
}

func TestPredictDeterministicBySeed(t *testing.T) {
	x, y := synth(100, 4, 0.1, 3)
	a, _ := Train(x, y, Config{Trees: 10, Seed: 42})
	b, _ := Train(x, y, Config{Trees: 10, Seed: 42})
	for i := 0; i < 20; i++ {
		probe := x[i]
		pa, _ := a.Predict(probe)
		pb, _ := b.Predict(probe)
		if pa != pb {
			t.Fatal("same seed should train identical forests")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("want ErrNoData, got %v", err)
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Config{}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("want ErrBadShape on row/target mismatch, got %v", err)
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, []float64{1, 2}, Config{}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("want ErrBadShape on ragged rows, got %v", err)
	}
}

func TestPredictShapeError(t *testing.T) {
	x, y := synth(50, 3, 0.1, 1)
	f, _ := Train(x, y, Config{Trees: 5, Seed: 1})
	if _, err := f.Predict([]float64{1}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("want ErrBadShape, got %v", err)
	}
}

func TestMaxDepthRespected(t *testing.T) {
	x, y := synth(500, 4, 0.0, 5)
	f, _ := Train(x, y, Config{Trees: 5, MaxDepth: 3, Seed: 1})
	for _, tree := range f.Trees {
		if d := depth(&tree); d > 3 {
			t.Fatalf("tree depth %d exceeds max 3", d)
		}
	}
	deep, _ := Train(x, y, Config{Trees: 5, Seed: 1})
	foundDeeper := false
	for _, tree := range deep.Trees {
		if depth(&tree) > 3 {
			foundDeeper = true
		}
	}
	if !foundDeeper {
		t.Fatal("unbounded trees should grow deeper than 3 on 500 samples")
	}
}

func TestMinSamplesLeaf(t *testing.T) {
	x, y := synth(200, 3, 0.2, 9)
	f, _ := Train(x, y, Config{Trees: 5, MinSamplesLeaf: 20, Seed: 1})
	// Count leaf sizes indirectly: trees must be small.
	for _, tree := range f.Trees {
		leaves := 0
		for _, n := range tree.Nodes {
			if n.Feature < 0 {
				leaves++
			}
		}
		if leaves > 200/20+1 {
			t.Fatalf("too many leaves (%d) for MinSamplesLeaf=20", leaves)
		}
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := []float64{7, 7, 7}
	f, err := Train(x, y, Config{Trees: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Predict([]float64{0, 0})
	if p != 7 {
		t.Fatalf("constant target should predict the constant, got %v", p)
	}
}

func TestSingleSample(t *testing.T) {
	f, err := Train([][]float64{{1}}, []float64{5}, Config{Trees: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := f.Predict([]float64{99})
	if p != 5 {
		t.Fatalf("single-sample forest should predict that sample, got %v", p)
	}
}

// Property: predictions are bounded by [min(y), max(y)] — averaging
// leaf means can never extrapolate beyond the training range.
func TestPredictionBoundsProperty(t *testing.T) {
	x, y := synth(300, 4, 0.3, 11)
	f, _ := Train(x, y, Config{Trees: 15, Seed: 2})
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		minY = math.Min(minY, v)
		maxY = math.Max(maxY, v)
	}
	check := func(a, b, c, d float64) bool {
		p, err := f.Predict([]float64{a, b, c, d})
		if err != nil {
			return false
		}
		return p >= minY-1e-9 && p <= maxY+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	x, y := synth(150, 4, 0.1, 13)
	f, _ := Train(x, y, Config{Trees: 10, Seed: 3})
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		pa, _ := f.Predict(x[i])
		pb, _ := back.Predict(x[i])
		if pa != pb {
			t.Fatal("decoded forest differs")
		}
	}
	if _, err := Decode([]byte("junk")); err == nil {
		t.Fatal("garbage should not decode")
	}
}

func TestMoreTreesReduceVariance(t *testing.T) {
	x, y := synth(400, 5, 0.5, 17)
	xt, yt := synth(200, 5, 0.5, 18)
	small, _ := Train(x, y, Config{Trees: 1, Seed: 4})
	big, _ := Train(x, y, Config{Trees: 60, Seed: 4})
	r2s, _ := r2(small, xt, yt)
	r2b, _ := r2(big, xt, yt)
	if r2b <= r2s {
		t.Fatalf("ensemble should beat single tree on noisy data: 1-tree R2=%v 60-tree R2=%v", r2s, r2b)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	x, y := synth(1000, 132, 0.1, 1) // Magpie-sized feature vector
	f, _ := Train(x, y, Config{Trees: 100, MaxDepth: 12, Seed: 1})
	probe := x[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(probe) //nolint:errcheck
	}
}
