package matsci

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestLookup(t *testing.T) {
	fe, ok := Lookup("Fe")
	if !ok {
		t.Fatal("Fe should exist")
	}
	if fe.Z != 26 || fe.Mass < 55 || fe.Mass > 56 {
		t.Fatalf("Fe data wrong: %+v", fe)
	}
	if _, ok := Lookup("Xx"); ok {
		t.Fatal("Xx should not exist")
	}
	if len(table) < 90 {
		t.Fatalf("table too small: %d", len(table))
	}
}

func TestValenceCounts(t *testing.T) {
	cases := map[string][4]int{ // s,p,d,f
		"H":  {1, 0, 0, 0},
		"O":  {2, 4, 0, 0},
		"Na": {1, 0, 0, 0},
		"Si": {2, 2, 0, 0},
		"Fe": {2, 0, 6, 0},
		"Zn": {2, 0, 0, 0}, // full 3d10 is core-like
		"Cl": {2, 5, 0, 0},
	}
	for sym, want := range cases {
		e, _ := Lookup(sym)
		got := [4]int{e.NsValence, e.NpValence, e.NdValence, e.NfValence}
		if got != want {
			t.Errorf("%s valence = %v, want %v", sym, got, want)
		}
	}
	// Total valence sanity for a lanthanide: f electrons counted.
	ce, _ := Lookup("Ce")
	if ce.NfValence == 0 && ce.NdValence == 0 {
		t.Error("Ce should have d or f valence electrons")
	}
}

func TestParseSimple(t *testing.T) {
	c, err := ParseComposition("NaCl")
	if err != nil {
		t.Fatal(err)
	}
	if c["Na"] != 1 || c["Cl"] != 1 {
		t.Fatalf("NaCl wrong: %v", c)
	}
	c, _ = ParseComposition("SiO2")
	if c["Si"] != 1 || c["O"] != 2 {
		t.Fatalf("SiO2 wrong: %v", c)
	}
	c, _ = ParseComposition("Al2O3")
	if c["Al"] != 2 || c["O"] != 3 {
		t.Fatalf("Al2O3 wrong: %v", c)
	}
}

func TestParseParentheses(t *testing.T) {
	c, err := ParseComposition("Ca(OH)2")
	if err != nil {
		t.Fatal(err)
	}
	if c["Ca"] != 1 || c["O"] != 2 || c["H"] != 2 {
		t.Fatalf("Ca(OH)2 wrong: %v", c)
	}
	c, err = ParseComposition("Ba(Zr0.2Ti0.8)O3")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c["Zr"]-0.2) > 1e-12 || math.Abs(c["Ti"]-0.8) > 1e-12 || c["O"] != 3 {
		t.Fatalf("perovskite wrong: %v", c)
	}
	// Nested parens.
	c, err = ParseComposition("Mg(Al(OH)4)2")
	if err != nil {
		t.Fatal(err)
	}
	if c["Al"] != 2 || c["O"] != 8 || c["H"] != 8 || c["Mg"] != 1 {
		t.Fatalf("nested wrong: %v", c)
	}
}

func TestParseFractional(t *testing.T) {
	c, err := ParseComposition("Li0.5Na0.5Cl")
	if err != nil {
		t.Fatal(err)
	}
	if c["Li"] != 0.5 || c["Na"] != 0.5 || c["Cl"] != 1 {
		t.Fatalf("fractional wrong: %v", c)
	}
}

func TestParseRepeatedElement(t *testing.T) {
	c, err := ParseComposition("CH3COOH") // acetic acid: C2H4O2
	if err != nil {
		t.Fatal(err)
	}
	if c["C"] != 2 || c["H"] != 4 || c["O"] != 2 {
		t.Fatalf("repeated element accumulation wrong: %v", c)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]error{
		"":        ErrEmptyFormula,
		"  ":      ErrEmptyFormula,
		"Xx2":     ErrUnknownElement,
		"Na)Cl":   ErrBadFormula,
		"(NaCl":   ErrBadFormula,
		"Na(Cl))": ErrBadFormula,
		"2NaCl":   ErrBadFormula,
		"na":      ErrBadFormula,
	}
	for formula, want := range cases {
		if _, err := ParseComposition(formula); !errors.Is(err, want) {
			t.Errorf("%q: want %v, got %v", formula, want, err)
		}
	}
}

func TestFractions(t *testing.T) {
	c, _ := ParseComposition("SiO2")
	syms, fr := c.Fractions()
	if syms[0] != "O" || syms[1] != "Si" {
		t.Fatalf("symbols should be sorted: %v", syms)
	}
	if math.Abs(fr[0]-2.0/3) > 1e-12 || math.Abs(fr[1]-1.0/3) > 1e-12 {
		t.Fatalf("fractions wrong: %v", fr)
	}
}

func TestReducedFormula(t *testing.T) {
	c, _ := ParseComposition("Si2O4")
	if got := c.ReducedFormula(); got != "O2Si" {
		t.Fatalf("reduced formula = %q", got)
	}
	c, _ = ParseComposition("NaCl")
	if got := c.ReducedFormula(); got != "ClNa" {
		t.Fatalf("reduced formula = %q", got)
	}
}

// Property: parse(ReducedFormula(c)) preserves mole fractions.
func TestReducedFormulaRoundTripProperty(t *testing.T) {
	syms := commonElements()
	f := func(a, b uint8, na, nb uint8) bool {
		ea := syms[int(a)%len(syms)]
		eb := syms[int(b)%len(syms)]
		if ea == eb {
			return true
		}
		c := Composition{ea: float64(na%5 + 1), eb: float64(nb%5 + 1)}
		back, err := ParseComposition(c.ReducedFormula())
		if err != nil {
			return false
		}
		_, f1 := c.Fractions()
		_, f2 := back.Fractions()
		for i := range f1 {
			if math.Abs(f1[i]-f2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// featureNames spells out the feature vector layout Featurize fills.
func featureNames() []string {
	names := make([]string, 0, NumFeatures())
	for _, p := range pNorms {
		if p == 0 {
			names = append(names, "stoich_nelements")
		} else {
			names = append(names, "stoich_p"+strconv.Itoa(int(p))+"_norm")
		}
	}
	for _, prop := range properties {
		for _, s := range stats {
			names = append(names, "magpie_"+prop.Name+"_"+s)
		}
	}
	for _, orb := range []string{"s", "p", "d", "f"} {
		names = append(names, "valence_frac_"+orb)
	}
	return names
}

func TestFeaturizeDimensions(t *testing.T) {
	c, _ := ParseComposition("NaCl")
	feats := Featurize(c)
	if len(feats) != NumFeatures() {
		t.Fatalf("feature length %d != NumFeatures %d", len(feats), NumFeatures())
	}
	names := featureNames()
	if len(names) != NumFeatures() {
		t.Fatalf("names length %d != NumFeatures %d", len(names), NumFeatures())
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %s", n)
		}
		seen[n] = true
	}
	if NumFeatures() < 70 {
		t.Fatalf("feature vector suspiciously small: %d", NumFeatures())
	}
}

func TestFeaturizeKnownValues(t *testing.T) {
	c, _ := ParseComposition("NaCl")
	feats := Featurize(c)
	names := featureNames()
	get := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return feats[i]
			}
		}
		t.Fatalf("feature %s missing", name)
		return 0
	}
	if get("stoich_nelements") != 2 {
		t.Fatal("NaCl has 2 elements")
	}
	// Mean Z of Na(11), Cl(17) at 50/50 = 14.
	if math.Abs(get("magpie_Z_mean")-14) > 1e-9 {
		t.Fatalf("mean Z wrong: %v", get("magpie_Z_mean"))
	}
	// EN range = 3.16-0.93 = 2.23.
	if math.Abs(get("magpie_Electronegativity_range")-2.23) > 1e-9 {
		t.Fatalf("EN range wrong: %v", get("magpie_Electronegativity_range"))
	}
	// p=2 norm of (0.5,0.5) = sqrt(0.5).
	if math.Abs(get("stoich_p2_norm")-math.Sqrt(0.5)) > 1e-9 {
		t.Fatalf("p2 norm wrong: %v", get("stoich_p2_norm"))
	}
	// Valence fractions sum to 1.
	sum := get("valence_frac_s") + get("valence_frac_p") + get("valence_frac_d") + get("valence_frac_f")
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("valence fractions should sum to 1: %v", sum)
	}
}

// Property: featurization is scale-invariant (depends on fractions, not
// absolute amounts) — Si2O4 featurizes like SiO2.
func TestFeaturizeScaleInvariantProperty(t *testing.T) {
	f := func(mult uint8) bool {
		m := float64(mult%9) + 1
		a, _ := ParseComposition("SiO2")
		b := Composition{"Si": m, "O": 2 * m}
		fa, fb := Featurize(a), Featurize(b)
		for i := range fa {
			if math.Abs(fa[i]-fb[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFormationEnergyShape(t *testing.T) {
	// Elemental references are zero.
	si, _ := ParseComposition("Si")
	if FormationEnergy(si) != 0 {
		t.Fatal("elemental formation energy should be 0")
	}
	// Strongly ionic NaCl should be clearly negative.
	nacl, _ := ParseComposition("NaCl")
	if FormationEnergy(nacl) >= -0.3 {
		t.Fatalf("NaCl should be strongly bound: %v", FormationEnergy(nacl))
	}
	// NaCl (ΔEN=2.23) binds more strongly than FeNi (ΔEN=0.08).
	feni, _ := ParseComposition("FeNi")
	if FormationEnergy(nacl) >= FormationEnergy(feni) {
		t.Fatal("ionic compound should bind more strongly than metallic alloy")
	}
}

func TestGenerateDataset(t *testing.T) {
	ds := GenerateDataset(200, 42)
	if len(ds.Formulas) != 200 || len(ds.X) != 200 || len(ds.Y) != 200 {
		t.Fatalf("dataset sizes wrong: %d/%d/%d", len(ds.Formulas), len(ds.X), len(ds.Y))
	}
	for i, x := range ds.X {
		if len(x) != NumFeatures() {
			t.Fatalf("row %d has %d features", i, len(x))
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite feature at [%d][%d]", i, j)
			}
		}
	}
	// Deterministic by seed.
	ds2 := GenerateDataset(200, 42)
	for i := range ds.Formulas {
		if ds.Formulas[i] != ds2.Formulas[i] {
			t.Fatal("dataset generation should be deterministic")
		}
	}
	// All formulas parse back.
	for _, f := range ds.Formulas {
		if _, err := ParseComposition(f); err != nil {
			t.Fatalf("generated formula %q does not parse: %v", f, err)
		}
	}
}

func TestDatasetHasVariedTargets(t *testing.T) {
	ds := GenerateDataset(300, 7)
	minY, maxY := ds.Y[0], ds.Y[0]
	for _, y := range ds.Y {
		minY = math.Min(minY, y)
		maxY = math.Max(maxY, y)
	}
	if maxY-minY < 0.5 {
		t.Fatalf("targets have too little spread for learning: [%v, %v]", minY, maxY)
	}
}

func TestFeatureNamesPrefixes(t *testing.T) {
	names := featureNames()
	var magpie, stoich, valence int
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "magpie_"):
			magpie++
		case strings.HasPrefix(n, "stoich_"):
			stoich++
		case strings.HasPrefix(n, "valence_"):
			valence++
		}
	}
	if magpie != 12*6 || stoich != 6 || valence != 4 {
		t.Fatalf("feature group counts wrong: %d/%d/%d", magpie, stoich, valence)
	}
}
