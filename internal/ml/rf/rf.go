// Package rf implements CART regression trees and random forests: the
// stand-in for the scikit-learn random forest behind the paper's
// "matminer model" servable, which "executes a scikit-learn random
// forest model to predict stability" trained on OQMD formation-energy
// data with the features of Ward et al. Training (bootstrap bagging +
// random feature subsetting + variance-reduction splits) and inference
// are fully implemented; models serialize with gob for packaging into
// servable containers.
package rf

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Node is one tree node, stored in a flat slice for cache-friendly
// traversal and easy serialization.
type Node struct {
	// Feature < 0 marks a leaf.
	Feature   int
	Threshold float64
	// Left/Right index into the tree's node slice (internal nodes).
	Left, Right int32
	// Value is the leaf prediction.
	Value float64
}

// Tree is a CART regression tree.
type Tree struct {
	Nodes []Node
}

// Predict traverses the tree for one sample.
func (t *Tree) Predict(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Value
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Config controls forest training.
type Config struct {
	// Trees in the ensemble (sklearn default: 100).
	Trees int
	// MaxDepth bounds tree depth; 0 = unlimited.
	MaxDepth int
	// MinSamplesLeaf is the minimum samples in a leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures per split; 0 = len(features)/3 (sklearn regression
	// default heuristic).
	MaxFeatures int
	// Seed makes training deterministic.
	Seed int64
}

func (c Config) withDefaults(nFeatures int) Config {
	if c.Trees <= 0 {
		c.Trees = 100
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 1
	}
	if c.MaxFeatures <= 0 {
		c.MaxFeatures = nFeatures / 3
		if c.MaxFeatures < 1 {
			c.MaxFeatures = 1
		}
	}
	return c
}

// Forest is a trained random-forest regressor.
type Forest struct {
	Trees     []Tree
	NFeatures int
}

// Errors.
var (
	ErrNoData   = errors.New("rf: empty training set")
	ErrBadShape = errors.New("rf: inconsistent feature dimensions")
)

// Train fits a forest on X (rows of features) and y.
func Train(x [][]float64, y []float64, cfg Config) (*Forest, error) {
	if len(x) == 0 || len(y) == 0 {
		return nil, ErrNoData
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrBadShape, len(x), len(y))
	}
	nf := len(x[0])
	for _, row := range x {
		if len(row) != nf {
			return nil, ErrBadShape
		}
	}
	cfg = cfg.withDefaults(nf)
	rng := rand.New(rand.NewSource(cfg.Seed))

	f := &Forest{NFeatures: nf, Trees: make([]Tree, cfg.Trees)}
	for ti := 0; ti < cfg.Trees; ti++ {
		// Bootstrap sample.
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = rng.Intn(len(x))
		}
		b := &builder{
			x: x, y: y, cfg: cfg,
			rng: rand.New(rand.NewSource(rng.Int63())),
		}
		b.build(idx, 1)
		f.Trees[ti] = Tree{Nodes: b.nodes}
	}
	return f, nil
}

type builder struct {
	x     [][]float64
	y     []float64
	cfg   Config
	rng   *rand.Rand
	nodes []Node
}

// build grows a subtree over samples idx, returning its node index.
func (b *builder) build(idx []int, depth int) int32 {
	mean := meanOf(b.y, idx)
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Feature: -1, Value: mean})

	if len(idx) < 2*b.cfg.MinSamplesLeaf {
		return self
	}
	if b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth {
		return self
	}
	if pure(b.y, idx) {
		return self
	}

	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinSamplesLeaf || len(right) < b.cfg.MinSamplesLeaf {
		return self
	}
	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.nodes[self] = Node{Feature: feat, Threshold: thr, Left: l, Right: r}
	return self
}

func meanOf(y []float64, idx []int) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func pure(y []float64, idx []int) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}

// bestSplit finds the (feature, threshold) minimizing weighted child
// variance over a random feature subset, using the sorted single-pass
// incremental formulation.
func (b *builder) bestSplit(idx []int) (int, float64, bool) {
	nf := len(b.x[0])
	feats := b.rng.Perm(nf)[:b.cfg.MaxFeatures]

	bestScore := math.Inf(1)
	bestFeat, bestThr := -1, 0.0

	order := make([]int, len(idx))
	for _, feat := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, c int) bool { return b.x[order[a]][feat] < b.x[order[c]][feat] })

		// Incremental sums: left grows sample by sample.
		var lSum, lSq float64
		var rSum, rSq float64
		n := float64(len(order))
		for _, i := range order {
			rSum += b.y[i]
			rSq += b.y[i] * b.y[i]
		}
		for k := 0; k < len(order)-1; k++ {
			yi := b.y[order[k]]
			lSum += yi
			lSq += yi * yi
			rSum -= yi
			rSq -= yi * yi

			// Candidate split between k and k+1; skip ties.
			cur, next := b.x[order[k]][feat], b.x[order[k+1]][feat]
			if cur == next {
				continue
			}
			nl, nr := float64(k+1), n-float64(k+1)
			score := (lSq - lSum*lSum/nl) + (rSq - rSum*rSum/nr)
			if score < bestScore {
				bestScore = score
				bestFeat = feat
				bestThr = (cur + next) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

// Predict averages tree predictions for one sample.
func (f *Forest) Predict(x []float64) (float64, error) {
	if len(x) != f.NFeatures {
		return 0, fmt.Errorf("%w: model wants %d features, got %d", ErrBadShape, f.NFeatures, len(x))
	}
	var s float64
	for i := range f.Trees {
		s += f.Trees[i].Predict(x)
	}
	return s / float64(len(f.Trees)), nil
}

// Encode serializes the forest with gob.
func Encode(f *Forest) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode reconstructs a forest from Encode output.
func Decode(data []byte) (*Forest, error) {
	var f Forest
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&f); err != nil {
		return nil, fmt.Errorf("rf: decode: %w", err)
	}
	return &f, nil
}
