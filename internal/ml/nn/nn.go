// Package nn is the neural-network inference runtime: the stand-in for
// the TensorFlow/Keras graphs served by the paper's Inception-v3 and
// CIFAR-10 servables. Models are layer graphs with real weights; every
// forward pass performs genuine convolution and matrix arithmetic from
// package tensor. Weights are random (deterministic per seed): the
// experiments measure serving latency, which depends on architecture and
// arithmetic, not on what the weights were trained to do.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"

	"repro/internal/ml/tensor"
)

// Layer transforms an activation tensor.
type Layer interface {
	// Forward computes the layer output; implementations must not
	// mutate in (replicas share one loaded model across goroutines).
	Forward(in *tensor.Tensor) *tensor.Tensor
}

// Conv is a 2D convolution layer with optional bias and ReLU.
type Conv struct {
	LayerName string
	Kernel    *tensor.Tensor // [kh,kw,cin,cout]
	Bias      []float32
	Stride    int
	SamePad   bool
	Activate  bool // apply ReLU
}

// Forward implements Layer.
func (c *Conv) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := tensor.Conv2D(in, c.Kernel, c.Stride, c.SamePad)
	if c.Bias != nil {
		out.AddBias(c.Bias)
	}
	if c.Activate {
		out.ReLU()
	}
	return out
}

// MaxPool is a max-pooling layer.
type MaxPool struct {
	LayerName      string
	Window, Stride int
}

// Forward implements Layer.
func (p *MaxPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2D(in, p.Window, p.Stride)
}

// AvgPool is an average-pooling layer.
type AvgPool struct {
	LayerName      string
	Window, Stride int
}

// Forward implements Layer.
func (p *AvgPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPool2D(in, p.Window, p.Stride)
}

// Inception is one Inception module: four parallel towers (1x1; 1x1→3x3;
// 1x1→5x5; pool→1x1) concatenated along channels, as in Szegedy et al.
type Inception struct {
	LayerName string
	Tower1    *Conv   // 1x1
	Tower2    []*Conv // 1x1 reduce then 3x3
	Tower3    []*Conv // 1x1 reduce then 5x5 (factored as two 3x3 in v3 style)
	TowerPool *Conv   // 1x1 after 3x3 avg pool
}

// Forward implements Layer.
func (m *Inception) Forward(in *tensor.Tensor) *tensor.Tensor {
	t1 := m.Tower1.Forward(in)
	t2 := in
	for _, c := range m.Tower2 {
		t2 = c.Forward(t2)
	}
	t3 := in
	for _, c := range m.Tower3 {
		t3 = c.Forward(t3)
	}
	pooled := tensor.AvgPool2D(padForPool(in), 3, 1)
	t4 := m.TowerPool.Forward(pooled)
	return tensor.ConcatChannels(t1, t2, t3, t4)
}

// padForPool pads H,W by 1 on each side so a 3x3/1 pool preserves shape.
func padForPool(in *tensor.Tensor) *tensor.Tensor {
	h, w, c := in.Shape[0], in.Shape[1], in.Shape[2]
	out := tensor.New(h+2, w+2, c)
	for y := 0; y < h; y++ {
		src := in.Data[y*w*c : (y+1)*w*c]
		dstOff := ((y+1)*(w+2) + 1) * c
		copy(out.Data[dstOff:dstOff+w*c], src)
	}
	return out
}

// Dense is a fully connected layer over the flattened input.
type Dense struct {
	LayerName string
	W         []float32 // row-major [Out][In]
	B         []float32
	In, Out   int
	Activate  bool
}

// Forward implements Layer.
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Len() != d.In {
		panic(fmt.Sprintf("nn: dense %s expects %d inputs, got %d", d.LayerName, d.In, in.Len()))
	}
	y := tensor.MatVec(d.W, d.Out, d.In, in.Data)
	for i := range y {
		y[i] += d.B[i]
	}
	out := tensor.FromData(y, d.Out)
	if d.Activate {
		out.ReLU()
	}
	return out
}

// GlobalPool reduces HWC to a C vector.
type GlobalPool struct{ LayerName string }

// Forward implements Layer.
func (g *GlobalPool) Forward(in *tensor.Tensor) *tensor.Tensor {
	v := tensor.GlobalAvgPool(in)
	return tensor.FromData(v, len(v))
}

// Model is a sequential stack of layers with class labels.
type Model struct {
	ModelName  string
	InputShape []int
	Layers     []Layer
	Labels     []string
}

// Forward runs a full inference pass.
func (m *Model) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := in
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict runs inference and softmax, returning the top-k (label,
// probability) pairs — the servable-facing API.
func (m *Model) Predict(in *tensor.Tensor, k int) []Prediction {
	logits := m.Forward(in)
	probs := tensor.Softmax(logits.Data)
	top := tensor.ArgTopK(probs, k)
	out := make([]Prediction, len(top))
	for i, idx := range top {
		label := fmt.Sprintf("class_%d", idx)
		if idx < len(m.Labels) {
			label = m.Labels[idx]
		}
		out[i] = Prediction{Label: label, Probability: probs[idx]}
	}
	return out
}

// Prediction is one classification output.
type Prediction struct {
	Label       string  `json:"label"`
	Probability float32 `json:"probability"`
}

// --- builders -------------------------------------------------------------

func newConv(name string, rng *rand.Rand, kh, kw, cin, cout, stride int, pad bool) *Conv {
	k := tensor.New(kh, kw, cin, cout)
	// He-style init keeps activations in a sane range through deep nets.
	scale := float32(1.0) / float32(kh*kw*cin)
	k.FillRandom(rng, scale*8)
	bias := make([]float32, cout)
	return &Conv{LayerName: name, Kernel: k, Bias: bias, Stride: stride, SamePad: pad, Activate: true}
}

// NewCIFAR10 builds the multi-layer CNN of the CIFAR-10 servable:
// 32x32x3 input, three conv/pool blocks, two dense layers, 10 classes.
func NewCIFAR10(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	layers := []Layer{
		newConv("conv1", rng, 3, 3, 3, 16, 1, true),
		newConv("conv2", rng, 3, 3, 16, 16, 1, true),
		&MaxPool{LayerName: "pool1", Window: 2, Stride: 2}, // 16x16x16
		newConv("conv3", rng, 3, 3, 16, 32, 1, true),
		&MaxPool{LayerName: "pool2", Window: 2, Stride: 2}, // 8x8x32
		newConv("conv4", rng, 3, 3, 32, 32, 1, true),
		&MaxPool{LayerName: "pool3", Window: 2, Stride: 2}, // 4x4x32
	}
	flat := 4 * 4 * 32
	dense1 := &Dense{LayerName: "fc1", In: flat, Out: 64, Activate: true}
	dense1.W = randSlice(rng, flat*64, 0.05)
	dense1.B = make([]float32, 64)
	dense2 := &Dense{LayerName: "fc2", In: 64, Out: 10}
	dense2.W = randSlice(rng, 64*10, 0.1)
	dense2.B = make([]float32, 10)
	layers = append(layers, dense1, dense2)
	return &Model{
		ModelName:  "cifar10",
		InputShape: []int{32, 32, 3},
		Layers:     layers,
		Labels: []string{"airplane", "automobile", "bird", "cat", "deer",
			"dog", "frog", "horse", "ship", "truck"},
	}
}

func newInceptionModule(name string, rng *rand.Rand, cin, c1, c2r, c2, c3r, c3, cp int) *Inception {
	return &Inception{
		LayerName: name,
		Tower1:    newConv(name+"/t1", rng, 1, 1, cin, c1, 1, true),
		Tower2: []*Conv{
			newConv(name+"/t2r", rng, 1, 1, cin, c2r, 1, true),
			newConv(name+"/t2", rng, 3, 3, c2r, c2, 1, true),
		},
		Tower3: []*Conv{
			newConv(name+"/t3r", rng, 1, 1, cin, c3r, 1, true),
			newConv(name+"/t3a", rng, 3, 3, c3r, c3, 1, true),
			newConv(name+"/t3b", rng, 3, 3, c3, c3, 1, true),
		},
		TowerPool: newConv(name+"/tp", rng, 1, 1, cin, cp, 1, true),
	}
}

// NewInception builds the Inception-style network of the "Inception"
// servable: a reduced-width Inception-v3 (stem + stacked Inception
// modules + classifier) on 64x64x3 input with 1000 ImageNet-style
// classes. Substitution note (DESIGN.md): the real Inception-v3 runs
// 299x299 inputs through ~11 modules; this network keeps the
// architecture shape (stem, module stacking, factored 5x5, global pool,
// top-5 over 1000 classes) at a width/resolution that makes
// thousand-request sweeps feasible on one machine. It stays ~5x more
// compute than CIFAR-10 with a 4x larger input, preserving the
// heavy-vs-light and input-transfer contrasts every figure relies on.
func NewInception(seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	layers := []Layer{
		// Stem: conv /2, conv, pool /2 -> 16x16
		newConv("stem/conv1", rng, 3, 3, 3, 16, 2, true),       // 32x32x16
		newConv("stem/conv2", rng, 3, 3, 16, 32, 1, true),      // 32x32x32
		&MaxPool{LayerName: "stem/pool", Window: 2, Stride: 2}, // 16x16x32
		// Inception stack A.
		newInceptionModule("mixed1", rng, 32, 16, 16, 24, 8, 16, 8),   // -> 64ch
		newInceptionModule("mixed2", rng, 64, 24, 24, 32, 12, 24, 16), // -> 96ch
		&MaxPool{LayerName: "reduceA", Window: 2, Stride: 2},          // 8x8x96
		// Inception stack B.
		newInceptionModule("mixed3", rng, 96, 32, 32, 48, 16, 32, 16),  // -> 128ch
		newInceptionModule("mixed4", rng, 128, 48, 48, 64, 24, 48, 32), // -> 192ch
		&MaxPool{LayerName: "reduceB", Window: 2, Stride: 2},           // 4x4x192
		// Inception stack C.
		newInceptionModule("mixed5", rng, 192, 64, 64, 96, 32, 64, 32), // -> 256ch
		&GlobalPool{LayerName: "gap"},
	}
	dense := &Dense{LayerName: "logits", In: 256, Out: 1000}
	dense.W = randSlice(rng, 256*1000, 0.05)
	dense.B = make([]float32, 1000)
	layers = append(layers, dense)

	labels := make([]string, 1000)
	for i := range labels {
		labels[i] = fmt.Sprintf("imagenet_%04d", i)
	}
	return &Model{
		ModelName:  "inception",
		InputShape: []int{64, 64, 3},
		Layers:     layers,
		Labels:     labels,
	}
}

func randSlice(rng *rand.Rand, n int, scale float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * scale
	}
	return out
}

// --- serialization ---------------------------------------------------------

// The gob wire format stores the architecture + weights; it is the
// "model components" artifact uploaded at publication and baked into
// servable containers by the Management Service.

type wireModel struct {
	Name       string
	InputShape []int
	Labels     []string
	Layers     []wireLayer
}

type wireLayer struct {
	Kind string // conv/maxpool/avgpool/dense/global/inception
	Name string

	// conv
	KernelShape []int
	KernelData  []float32
	Bias        []float32
	Stride      int
	SamePad     bool
	Activate    bool

	// pool
	Window int

	// dense
	W       []float32
	B       []float32
	In, Out int

	// inception towers (recursively encoded convs)
	Towers [][]wireLayer
}

func encodeConv(c *Conv) wireLayer {
	return wireLayer{
		Kind: "conv", Name: c.LayerName,
		KernelShape: c.Kernel.Shape, KernelData: c.Kernel.Data,
		Bias: c.Bias, Stride: c.Stride, SamePad: c.SamePad, Activate: c.Activate,
	}
}

func decodeConv(w wireLayer) *Conv {
	return &Conv{
		LayerName: w.Name,
		Kernel:    tensor.FromData(w.KernelData, w.KernelShape...),
		Bias:      w.Bias, Stride: w.Stride, SamePad: w.SamePad, Activate: w.Activate,
	}
}

// Encode serializes the model.
func Encode(m *Model) ([]byte, error) {
	wm := wireModel{Name: m.ModelName, InputShape: m.InputShape, Labels: m.Labels}
	for _, l := range m.Layers {
		switch v := l.(type) {
		case *Conv:
			wm.Layers = append(wm.Layers, encodeConv(v))
		case *MaxPool:
			wm.Layers = append(wm.Layers, wireLayer{Kind: "maxpool", Name: v.LayerName, Window: v.Window, Stride: v.Stride})
		case *AvgPool:
			wm.Layers = append(wm.Layers, wireLayer{Kind: "avgpool", Name: v.LayerName, Window: v.Window, Stride: v.Stride})
		case *Dense:
			wm.Layers = append(wm.Layers, wireLayer{Kind: "dense", Name: v.LayerName, W: v.W, B: v.B, In: v.In, Out: v.Out, Activate: v.Activate})
		case *GlobalPool:
			wm.Layers = append(wm.Layers, wireLayer{Kind: "global", Name: v.LayerName})
		case *Inception:
			towers := [][]wireLayer{{encodeConv(v.Tower1)}, {}, {}, {encodeConv(v.TowerPool)}}
			for _, c := range v.Tower2 {
				towers[1] = append(towers[1], encodeConv(c))
			}
			for _, c := range v.Tower3 {
				towers[2] = append(towers[2], encodeConv(c))
			}
			wm.Layers = append(wm.Layers, wireLayer{Kind: "inception", Name: v.LayerName, Towers: towers})
		default:
			return nil, fmt.Errorf("nn: cannot encode layer type %T", l)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wm); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a model from Encode output.
func Decode(data []byte) (*Model, error) {
	var wm wireModel
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wm); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	m := &Model{ModelName: wm.Name, InputShape: wm.InputShape, Labels: wm.Labels}
	for _, w := range wm.Layers {
		switch w.Kind {
		case "conv":
			m.Layers = append(m.Layers, decodeConv(w))
		case "maxpool":
			m.Layers = append(m.Layers, &MaxPool{LayerName: w.Name, Window: w.Window, Stride: w.Stride})
		case "avgpool":
			m.Layers = append(m.Layers, &AvgPool{LayerName: w.Name, Window: w.Window, Stride: w.Stride})
		case "dense":
			m.Layers = append(m.Layers, &Dense{LayerName: w.Name, W: w.W, B: w.B, In: w.In, Out: w.Out, Activate: w.Activate})
		case "global":
			m.Layers = append(m.Layers, &GlobalPool{LayerName: w.Name})
		case "inception":
			if len(w.Towers) != 4 || len(w.Towers[0]) != 1 || len(w.Towers[3]) != 1 {
				return nil, fmt.Errorf("nn: malformed inception module %s", w.Name)
			}
			inc := &Inception{LayerName: w.Name, Tower1: decodeConv(w.Towers[0][0]), TowerPool: decodeConv(w.Towers[3][0])}
			for _, c := range w.Towers[1] {
				inc.Tower2 = append(inc.Tower2, decodeConv(c))
			}
			for _, c := range w.Towers[2] {
				inc.Tower3 = append(inc.Tower3, decodeConv(c))
			}
			m.Layers = append(m.Layers, inc)
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", w.Kind)
		}
	}
	return m, nil
}
