package servable

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/matsci"
	"repro/internal/ml/nn"
	"repro/internal/ml/rf"
	"repro/internal/pyruntime"
	"repro/internal/schema"
	"repro/internal/simconst"
)

// This file registers the "Python modules" baked into DLHub servable
// containers and provides builders for the six servables of §V-A:
// noop, Inception, CIFAR-10, and the three matminer workflow stages
// (util, featurize, model) — plus the tomography functions of §VI-C
// used by the examples.

var registerOnce sync.Once

// RegisterBuiltins installs all built-in Python functions in the
// pyruntime registry. Idempotent; called by every builder.
func RegisterBuiltins() {
	registerOnce.Do(func() {
		pyruntime.Register("noop:hello", func(arg any) (any, error) {
			return "hello world", nil
		})
		pyruntime.Register("test:length", func(arg any) (any, error) {
			s, ok := arg.(string)
			if !ok {
				return nil, fmt.Errorf("test:length wants a string, got %T", arg)
			}
			return len(s), nil
		})
		// "test sleep": a synthetic-load servable that holds its
		// (single-threaded) pod for 50 ms per request — deterministic
		// demand for autoscaler smokes and load experiments, without
		// burning CPU the way a real model would.
		pyruntime.Register("test:sleep", func(arg any) (any, error) {
			time.Sleep(simconst.D(50 * time.Millisecond))
			return "ok", nil
		})
		// "matminer util": parse a composition string with pymatgen.
		pyruntime.Register("pymatgen:parse_composition", func(arg any) (any, error) {
			formula, ok := arg.(string)
			if !ok {
				return nil, fmt.Errorf("pymatgen:parse_composition wants a string, got %T", arg)
			}
			comp, err := matsci.ParseComposition(formula)
			if err != nil {
				return nil, err
			}
			syms, fracs := comp.Fractions()
			out := map[string]any{}
			for i, s := range syms {
				out[s] = fracs[i]
			}
			return out, nil
		})
		// "matminer featurize": element fractions -> Ward/Magpie features.
		pyruntime.Register("matminer:featurize", func(arg any) (any, error) {
			m, ok := arg.(map[string]any)
			if !ok {
				return nil, fmt.Errorf("matminer:featurize wants {element: fraction}, got %T", arg)
			}
			comp := matsci.Composition{}
			for sym, v := range m {
				f, err := toFloat(v)
				if err != nil {
					return nil, fmt.Errorf("fraction for %s: %v", sym, err)
				}
				if _, known := matsci.Lookup(sym); !known {
					return nil, fmt.Errorf("unknown element %q", sym)
				}
				comp[sym] = f
			}
			if len(comp) == 0 {
				return nil, fmt.Errorf("empty composition")
			}
			feats := matsci.Featurize(comp)
			out := make([]any, len(feats))
			for i, f := range feats {
				out[i] = f
			}
			return out, nil
		})
		// Tomography (§VI-C): identify the highest-quality slice index
		// for reconstruction: score each slice by gradient energy.
		pyruntime.Register("tomography:find_center", func(arg any) (any, error) {
			slices, ok := arg.([]any)
			if !ok {
				return nil, fmt.Errorf("tomography:find_center wants a list of slices, got %T", arg)
			}
			bestIdx, bestScore := -1, math.Inf(-1)
			for i, s := range slices {
				img, err := ToFloat64Slice(s)
				if err != nil {
					return nil, fmt.Errorf("slice %d: %v", i, err)
				}
				score := gradientEnergy(img)
				if score > bestScore {
					bestScore, bestIdx = score, i
				}
			}
			if bestIdx < 0 {
				return nil, fmt.Errorf("no slices given")
			}
			return map[string]any{"center_slice": bestIdx, "quality": bestScore}, nil
		})
		// Tomography segmentation: threshold at Otsu-like 2-means and
		// report cell-like connected mass fraction.
		pyruntime.Register("tomography:segment", func(arg any) (any, error) {
			img, err := ToFloat64Slice(arg)
			if err != nil {
				return nil, err
			}
			if len(img) == 0 {
				return nil, fmt.Errorf("empty image")
			}
			thr := twoMeansThreshold(img)
			mask := make([]any, len(img))
			count := 0
			for i, v := range img {
				if v >= thr {
					mask[i] = 1
					count++
				} else {
					mask[i] = 0
				}
			}
			return map[string]any{
				"threshold":     thr,
				"mask":          mask,
				"cell_fraction": float64(count) / float64(len(img)),
			}, nil
		})
	})
}

func gradientEnergy(img []float64) float64 {
	var e float64
	for i := 1; i < len(img); i++ {
		d := img[i] - img[i-1]
		e += d * d
	}
	return e
}

// twoMeansThreshold runs 1-D 2-means (Otsu-like) to split foreground
// from background.
func twoMeansThreshold(img []float64) float64 {
	lo, hi := img[0], img[0]
	for _, v := range img {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	thr := (lo + hi) / 2
	for iter := 0; iter < 16; iter++ {
		var sumL, sumH float64
		var nL, nH int
		for _, v := range img {
			if v < thr {
				sumL += v
				nL++
			} else {
				sumH += v
				nH++
			}
		}
		if nL == 0 || nH == 0 {
			break
		}
		next := (sumL/float64(nL) + sumH/float64(nH)) / 2
		if math.Abs(next-thr) < 1e-9 {
			break
		}
		thr = next
	}
	return thr
}

// --- paper servable builders -------------------------------------------------

// Package bundles a publication document with its uploaded components —
// what a user submits to the Management Service.
type Package struct {
	Doc        *schema.Document
	Components map[string][]byte
}

// NoopPackage is the baseline "noop" servable: "returns hello world
// when invoked".
func NoopPackage() *Package {
	RegisterBuiltins()
	return &Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:        "noop",
				Title:       "Noop baseline",
				Authors:     []string{"DLHub Team"},
				Description: "Baseline task that returns hello world when invoked.",
				VisibleTo:   []string{"public"},
			},
			Servable: schema.Servable{
				Type:   schema.TypePythonFunction,
				Entry:  "noop:hello",
				Input:  schema.DataType{Kind: "string", Description: "ignored"},
				Output: schema.DataType{Kind: "string"},
			},
		},
	}
}

// InceptionPackage is Google's Inception-v3 image classifier (§V-A):
// "trained on a large academic dataset for image recognition ...
// outputs the five most likely categories".
func InceptionPackage(seed int64) (*Package, error) {
	RegisterBuiltins()
	model := nn.NewInception(seed)
	data, err := nn.Encode(model)
	if err != nil {
		return nil, err
	}
	return &Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:        "inception",
				Title:       "Inception-v3 image classifier",
				Authors:     []string{"Szegedy, Christian", "et al."},
				Description: "22-layer Inception image recognition model; returns top-5 of 1000 categories.",
				Domains:     []string{"computer vision"},
				VisibleTo:   []string{"public"},
			},
			Servable: schema.Servable{
				Type:            schema.TypeTensorFlow,
				ModelComponents: map[string]string{"model": "inception.pb"},
				Input:           schema.DataType{Kind: "ndarray", Shape: model.InputShape, Description: "RGB image"},
				Output:          schema.DataType{Kind: "list", ItemKind: "dict", Description: "top-5 labels"},
			},
		},
		Components: map[string][]byte{"model": data},
	}, nil
}

// CIFAR10Package is the multi-layer CNN trained on CIFAR-10 (§V-A).
func CIFAR10Package(seed int64) (*Package, error) {
	RegisterBuiltins()
	model := nn.NewCIFAR10(seed)
	data, err := nn.Encode(model)
	if err != nil {
		return nil, err
	}
	return &Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:        "cifar10",
				Title:       "CIFAR-10 convolutional classifier",
				Authors:     []string{"Krizhevsky, Alex"},
				Description: "Multi-layer CNN classifying 32x32 RGB images into 10 categories.",
				Domains:     []string{"computer vision"},
				VisibleTo:   []string{"public"},
			},
			Servable: schema.Servable{
				Type:            schema.TypeKeras,
				ModelComponents: map[string]string{"model": "cifar10.h5"},
				Input:           schema.DataType{Kind: "ndarray", Shape: []int{32, 32, 3}},
				Output:          schema.DataType{Kind: "list", ItemKind: "dict"},
			},
		},
		Components: map[string][]byte{"model": data},
	}, nil
}

// MatminerUtilPackage parses composition strings (workflow step 1).
func MatminerUtilPackage() *Package {
	RegisterBuiltins()
	return &Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:        "matminer-util",
				Title:       "Composition parser (pymatgen)",
				Authors:     []string{"Ward, Logan"},
				Description: "Parses a composition string (e.g. NaCl) into element fractions with pymatgen.",
				Domains:     []string{"materials science"},
				VisibleTo:   []string{"public"},
			},
			Servable: schema.Servable{
				Type:   schema.TypePythonFunction,
				Entry:  "pymatgen:parse_composition",
				Input:  schema.DataType{Kind: "string", Description: "chemical formula"},
				Output: schema.DataType{Kind: "dict", Description: "element -> mole fraction"},
			},
		},
	}
}

// MatminerFeaturizePackage computes Ward/Magpie features (step 2).
func MatminerFeaturizePackage() *Package {
	RegisterBuiltins()
	return &Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:        "matminer-featurize",
				Title:       "Magpie featurizer (matminer)",
				Authors:     []string{"Ward, Logan"},
				Description: "Computes elemental-property statistics (Ward et al. 2016) from element fractions.",
				Domains:     []string{"materials science"},
				VisibleTo:   []string{"public"},
			},
			Servable: schema.Servable{
				Type:   schema.TypePythonFunction,
				Entry:  "matminer:featurize",
				Input:  schema.DataType{Kind: "dict"},
				Output: schema.DataType{Kind: "list", ItemKind: "float"},
			},
		},
	}
}

// MatminerModelPackage trains the random-forest stability model on the
// synthetic OQMD-like dataset and packages it (step 3).
func MatminerModelPackage(trainN int, seed int64) (*Package, error) {
	RegisterBuiltins()
	if trainN <= 0 {
		trainN = 400
	}
	ds := matsci.GenerateDataset(trainN, seed)
	forest, err := rf.Train(ds.X, ds.Y, rf.Config{Trees: 100, MaxDepth: 12, Seed: seed})
	if err != nil {
		return nil, err
	}
	data, err := rf.Encode(forest)
	if err != nil {
		return nil, err
	}
	return &Package{
		Doc: &schema.Document{
			Publication: schema.Publication{
				Name:        "matminer-model",
				Title:       "Formation-energy random forest (scikit-learn)",
				Authors:     []string{"Ward, Logan"},
				Description: "Random forest predicting material stability from Magpie features; trained on OQMD-like data.",
				Domains:     []string{"materials science"},
				RelatedDatasets: []string{
					"https://oqmd.org (synthetic stand-in, see DESIGN.md)",
				},
				VisibleTo: []string{"public"},
			},
			Servable: schema.Servable{
				Type:            schema.TypeScikitLearn,
				ModelComponents: map[string]string{"model": "rf.pkl"},
				Input:           schema.DataType{Kind: "list", ItemKind: "float"},
				Output:          schema.DataType{Kind: "float", Description: "formation energy, eV/atom"},
			},
		},
		Components: map[string][]byte{"model": data},
	}, nil
}

// PipelineDoc builds the publication document for a pipeline chaining
// the given published servable IDs in order (§VI-D). Pipelines are
// virtual servables: no components, no container.
func PipelineDoc(name, title string, steps []string) *schema.Document {
	return &schema.Document{
		Publication: schema.Publication{
			Name:        name,
			Title:       title,
			Authors:     []string{"DLHub Team"},
			VisibleTo:   []string{"public"},
			Description: fmt.Sprintf("pipeline over %v", steps),
		},
		Servable: schema.Servable{
			Type:  schema.TypePipeline,
			Steps: steps,
		},
	}
}

// PaperServables builds all six §V-A servable packages keyed by name.
func PaperServables(seed int64) (map[string]*Package, error) {
	inception, err := InceptionPackage(seed)
	if err != nil {
		return nil, err
	}
	cifar, err := CIFAR10Package(seed)
	if err != nil {
		return nil, err
	}
	model, err := MatminerModelPackage(400, seed)
	if err != nil {
		return nil, err
	}
	return map[string]*Package{
		"noop":               NoopPackage(),
		"inception":          inception,
		"cifar10":            cifar,
		"matminer-util":      MatminerUtilPackage(),
		"matminer-featurize": MatminerFeaturizePackage(),
		"matminer-model":     model,
	}, nil
}
