package matsci

import (
	"math"
	"sort"
)

// The featurizer implements the elemental-property statistics of Ward
// et al. 2016 ("A general-purpose machine learning framework for
// predicting properties of inorganic materials"), the feature set the
// paper's "matminer featurize" servable computes: for each elemental
// property, the fraction-weighted mean, average deviation, range, min,
// max and mode over the constituent elements; plus stoichiometric
// p-norms and valence-orbital fractions.

// property accessors, in fixed order so feature indices are stable.
var properties = []struct {
	Name string
	Get  func(*Element) float64
}{
	{"Z", func(e *Element) float64 { return float64(e.Z) }},
	{"Mass", func(e *Element) float64 { return e.Mass }},
	{"Electronegativity", func(e *Element) float64 { return e.Electronegativity }},
	{"CovalentRadius", func(e *Element) float64 { return e.CovalentRadius }},
	{"MeltingPoint", func(e *Element) float64 { return e.MeltingPoint }},
	{"Row", func(e *Element) float64 { return float64(e.Row) }},
	{"Group", func(e *Element) float64 { return float64(e.Group) }},
	{"NsValence", func(e *Element) float64 { return float64(e.NsValence) }},
	{"NpValence", func(e *Element) float64 { return float64(e.NpValence) }},
	{"NdValence", func(e *Element) float64 { return float64(e.NdValence) }},
	{"NfValence", func(e *Element) float64 { return float64(e.NfValence) }},
	{"NValence", func(e *Element) float64 { return float64(e.NValence()) }},
}

var stats = []string{"mean", "avgdev", "range", "min", "max", "mode"}

// stoichiometric p-norms computed over mole fractions.
var pNorms = []float64{0, 2, 3, 5, 7, 10}

// NumFeatures is the feature vector length.
func NumFeatures() int {
	return len(pNorms) + len(properties)*len(stats) + 4
}

// Featurize computes the Ward/Magpie feature vector for a composition.
func Featurize(c Composition) []float64 {
	syms, fracs := c.Fractions()
	els := make([]*Element, len(syms))
	for i, s := range syms {
		els[i], _ = Lookup(s)
	}
	out := make([]float64, 0, NumFeatures())

	// Stoichiometric features.
	for _, p := range pNorms {
		if p == 0 {
			out = append(out, float64(len(syms)))
			continue
		}
		var norm float64
		for _, f := range fracs {
			norm += math.Pow(f, p)
		}
		out = append(out, math.Pow(norm, 1/p))
	}

	// Elemental property statistics.
	vals := make([]float64, len(els))
	for _, prop := range properties {
		for i, e := range els {
			vals[i] = prop.Get(e)
		}
		out = append(out, weightedStats(vals, fracs)...)
	}

	// Valence orbital fractions.
	var s, p, d, f float64
	for i, e := range els {
		s += fracs[i] * float64(e.NsValence)
		p += fracs[i] * float64(e.NpValence)
		d += fracs[i] * float64(e.NdValence)
		f += fracs[i] * float64(e.NfValence)
	}
	total := s + p + d + f
	if total == 0 {
		total = 1
	}
	out = append(out, s/total, p/total, d/total, f/total)
	return out
}

// weightedStats returns [mean, avgdev, range, min, max, mode] of vals
// weighted by fracs.
func weightedStats(vals, fracs []float64) []float64 {
	var mean float64
	for i, v := range vals {
		mean += fracs[i] * v
	}
	var avgdev float64
	for i, v := range vals {
		avgdev += fracs[i] * math.Abs(v-mean)
	}
	minV, maxV := vals[0], vals[0]
	modeIdx := 0
	for i, v := range vals {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
		if fracs[i] > fracs[modeIdx] {
			modeIdx = i
		}
	}
	return []float64{mean, avgdev, maxV - minV, minV, maxV, vals[modeIdx]}
}

// --- synthetic OQMD-like dataset -------------------------------------------

// FormationEnergy computes the synthetic ground-truth formation energy
// (eV/atom) used to generate training data: an ionic-bonding term from
// electronegativity differences minus a size-mismatch penalty, loosely
// shaped like real OQMD trends (binary ionic compounds strongly
// negative, single elements zero). It is deterministic — the RF learns
// a real, structured target.
func FormationEnergy(c Composition) float64 {
	syms, fracs := c.Fractions()
	if len(syms) == 1 {
		return 0 // elemental reference state
	}
	els := make([]*Element, len(syms))
	for i, s := range syms {
		els[i], _ = Lookup(s)
	}
	// Fraction-weighted mean electronegativity.
	var meanEN, meanRad float64
	for i, e := range els {
		meanEN += fracs[i] * e.Electronegativity
		meanRad += fracs[i] * e.CovalentRadius
	}
	// Ionic term: weighted mean |EN - meanEN| — larger spread binds
	// more strongly (Pauling's ionic stabilization).
	var ionic, sizeMismatch float64
	for i, e := range els {
		ionic += fracs[i] * math.Abs(e.Electronegativity-meanEN)
		sizeMismatch += fracs[i] * math.Abs(e.CovalentRadius-meanRad) / 100
	}
	// Entropy-like mixing bonus for multi-component phases.
	var mix float64
	for _, f := range fracs {
		if f > 0 {
			mix -= f * math.Log(f)
		}
	}
	return -1.2*ionic - 0.15*mix + 0.3*sizeMismatch*sizeMismatch
}

// Dataset is a generated training set.
type Dataset struct {
	Formulas []string
	X        [][]float64
	Y        []float64
}

// GenerateDataset builds n random binary/ternary compositions over the
// common elements, featurizes them, and labels them with the synthetic
// formation energy — the OQMD stand-in for training "matminer model".
func GenerateDataset(n int, seed int64) *Dataset {
	// xorshift for determinism without importing math/rand here.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	syms := commonElements()
	ds := &Dataset{}
	for len(ds.Formulas) < n {
		k := 2 + int(next()%2) // binary or ternary
		comp := Composition{}
		for j := 0; j < k; j++ {
			sym := syms[int(next()%uint64(len(syms)))]
			comp[sym] += float64(1 + next()%3)
		}
		if len(comp) < 2 {
			continue
		}
		ds.Formulas = append(ds.Formulas, comp.ReducedFormula())
		ds.X = append(ds.X, Featurize(comp))
		ds.Y = append(ds.Y, FormationEnergy(comp))
	}
	return ds
}

// commonElements returns a deterministic list of rock-forming and
// transition-metal elements used for dataset generation.
func commonElements() []string {
	syms := []string{
		"H", "Li", "Be", "B", "C", "N", "O", "F", "Na", "Mg", "Al", "Si",
		"P", "S", "Cl", "K", "Ca", "Ti", "V", "Cr", "Mn", "Fe", "Co",
		"Ni", "Cu", "Zn", "Ga", "Ge", "Se", "Sr", "Y", "Zr", "Nb", "Mo",
		"Ag", "Cd", "In", "Sn", "Sb", "Te", "Ba", "La", "W", "Pt", "Au",
		"Pb", "Bi",
	}
	sort.Strings(syms)
	return syms
}
