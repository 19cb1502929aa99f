// Package tensor provides the float32 dense-tensor arithmetic under the
// neural-network runtime: the real convolutions, poolings and matrix
// products that stand in for the TensorFlow/Keras compute of the paper's
// Inception and CIFAR-10 servables. All operations are genuinely
// computed — inference cost in the benchmarks is real CPU work.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid dimension %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData wraps data with a shape (no copy). len(data) must match.
func FromData(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v wants %d elements, have %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// At returns the element at [h,w,c] of an HWC tensor.
func (t *Tensor) At(h, w, c int) float32 {
	return t.Data[(h*t.Shape[1]+w)*t.Shape[2]+c]
}

// Set writes the element at [h,w,c] of an HWC tensor.
func (t *Tensor) Set(h, w, c int, v float32) {
	t.Data[(h*t.Shape[1]+w)*t.Shape[2]+c] = v
}

// FillRandom fills with uniform values in [-scale, scale] from rng.
func (t *Tensor) FillRandom(rng *rand.Rand, scale float32) {
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}

// --- elementwise ---------------------------------------------------------

// ReLU applies max(0,x) in place and returns t.
func (t *Tensor) ReLU() *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// AddBias adds a per-channel bias to an HWC tensor (or per-element for
// a vector of the same length) in place.
func (t *Tensor) AddBias(bias []float32) *Tensor {
	c := len(bias)
	for i := range t.Data {
		t.Data[i] += bias[i%c]
	}
	return t
}

// Softmax normalizes a vector into a probability distribution (stable).
func Softmax(v []float32) []float32 {
	out := make([]float32, len(v))
	if len(v) == 0 {
		return out
	}
	maxV := v[0]
	for _, x := range v {
		if x > maxV {
			maxV = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x - maxV))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
	return out
}

// ArgTopK returns the indices of the k largest values, descending — the
// "five most likely categories" output of the Inception servable.
func ArgTopK(v []float32, k int) []int {
	if k > len(v) {
		k = len(v)
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	// Partial selection sort: k is small (5).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if v[idx[j]] > v[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// --- linear algebra -------------------------------------------------------

// MatVec computes y = W·x for W in row-major [out][in].
func MatVec(w []float32, rows, cols int, x []float32) []float32 {
	if len(x) != cols {
		panic(fmt.Sprintf("tensor: matvec dims: %d cols vs %d input", cols, len(x)))
	}
	y := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		var sum float32
		for c, v := range row {
			sum += v * x[c]
		}
		y[r] = sum
	}
	return y
}

// --- convolution / pooling -------------------------------------------------

// Conv2D applies an HWC convolution: input [H,W,Cin], kernel
// [kh,kw,Cin,Cout], stride s, "same" padding when pad is true. The
// inner loops are written for cache-friendly channel-major access; this
// is the hot path of every CNN inference in the benchmarks.
func Conv2D(in *Tensor, kernel *Tensor, stride int, pad bool) *Tensor {
	h, w, cin := in.Shape[0], in.Shape[1], in.Shape[2]
	kh, kw, kcin, cout := kernel.Shape[0], kernel.Shape[1], kernel.Shape[2], kernel.Shape[3]
	if kcin != cin {
		panic(fmt.Sprintf("tensor: conv channels mismatch: input %d, kernel %d", cin, kcin))
	}
	padH, padW := 0, 0
	if pad {
		padH, padW = (kh-1)/2, (kw-1)/2
	}
	outH := (h+2*padH-kh)/stride + 1
	outW := (w+2*padW-kw)/stride + 1
	out := New(outH, outW, cout)

	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			outBase := (oy*outW + ox) * cout
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride + ky - padH
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ox*stride + kx - padW
					if ix < 0 || ix >= w {
						continue
					}
					inBase := (iy*w + ix) * cin
					kBase := ((ky*kw + kx) * cin) * cout
					for ci := 0; ci < cin; ci++ {
						iv := in.Data[inBase+ci]
						if iv == 0 {
							continue
						}
						kRow := kernel.Data[kBase+ci*cout : kBase+(ci+1)*cout]
						outRow := out.Data[outBase : outBase+cout]
						for co := range outRow {
							outRow[co] += iv * kRow[co]
						}
					}
				}
			}
		}
	}
	return out
}

// MaxPool2D applies non-overlapping max pooling with the given window
// and stride over an HWC tensor.
func MaxPool2D(in *Tensor, window, stride int) *Tensor {
	h, w, c := in.Shape[0], in.Shape[1], in.Shape[2]
	outH := (h-window)/stride + 1
	outW := (w-window)/stride + 1
	out := New(outH, outW, c)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ch := 0; ch < c; ch++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						v := in.At(oy*stride+ky, ox*stride+kx, ch)
						if v > best {
							best = v
						}
					}
				}
				out.Set(oy, ox, ch, best)
			}
		}
	}
	return out
}

// AvgPool2D applies average pooling.
func AvgPool2D(in *Tensor, window, stride int) *Tensor {
	h, w, c := in.Shape[0], in.Shape[1], in.Shape[2]
	outH := (h-window)/stride + 1
	outW := (w-window)/stride + 1
	out := New(outH, outW, c)
	norm := float32(1.0 / float64(window*window))
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			for ch := 0; ch < c; ch++ {
				var sum float32
				for ky := 0; ky < window; ky++ {
					for kx := 0; kx < window; kx++ {
						sum += in.At(oy*stride+ky, ox*stride+kx, ch)
					}
				}
				out.Set(oy, ox, ch, sum*norm)
			}
		}
	}
	return out
}

// GlobalAvgPool reduces an HWC tensor to a C-length vector.
func GlobalAvgPool(in *Tensor) []float32 {
	h, w, c := in.Shape[0], in.Shape[1], in.Shape[2]
	out := make([]float32, c)
	for i, v := range in.Data {
		out[i%c] += v
	}
	norm := float32(1.0 / float64(h*w))
	for i := range out {
		out[i] *= norm
	}
	return out
}

// ConcatChannels concatenates HWC tensors with equal H,W along C — the
// join at the end of every Inception module.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: concat of nothing")
	}
	h, w := ts[0].Shape[0], ts[0].Shape[1]
	total := 0
	for _, t := range ts {
		if t.Shape[0] != h || t.Shape[1] != w {
			panic(fmt.Sprintf("tensor: concat spatial mismatch: %v vs %v", t.Shape, ts[0].Shape))
		}
		total += t.Shape[2]
	}
	out := New(h, w, total)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			off := 0
			for _, t := range ts {
				c := t.Shape[2]
				src := t.Data[(y*w+x)*c : (y*w+x+1)*c]
				dst := out.Data[(y*w+x)*total+off : (y*w+x)*total+off+c]
				copy(dst, src)
				off += c
			}
		}
	}
	return out
}
