// Package matsci re-implements the materials-science toolchain the
// paper's matminer servables depend on: pymatgen-style composition
// parsing ("matminer util"), a Magpie-style elemental-property
// featurizer after Ward et al. 2016 ("matminer featurize"), and a
// synthetic OQMD-like formation-energy dataset generator used to train
// the random-forest stability model ("matminer model").
//
// Substitution note (DESIGN.md): the embedded element-property table
// holds approximate literature values (atomic mass, Pauling
// electronegativity, covalent radius, melting point, rows/groups).
// The featurizer's cost and output dimensionality match Magpie's
// statistics pipeline; individual property values are close but not
// authoritative, which is irrelevant to the serving experiments and
// acceptable for the example applications.
package matsci

// Element holds the per-element properties the featurizer consumes.
type Element struct {
	Symbol string
	Z      int
	// Mass in atomic mass units.
	Mass float64
	// Electronegativity on the Pauling scale (0 where undefined).
	Electronegativity float64
	// CovalentRadius in picometers.
	CovalentRadius float64
	// MeltingPoint in kelvin.
	MeltingPoint float64
	// Row and Group in the periodic table (lanthanides: row 8 by
	// Magpie convention... we use row 6, group 3 like pymatgen).
	Row, Group int
	// Valence electron counts by subshell, computed via Aufbau.
	NsValence, NpValence, NdValence, NfValence int
}

// NValence returns the total valence electron count.
func (e *Element) NValence() int {
	return e.NsValence + e.NpValence + e.NdValence + e.NfValence
}

// elementSeed lists the embedded raw properties:
// symbol, Z, mass, electronegativity, covalent radius, melting K, row, group.
var elementSeed = []struct {
	Sym  string
	Z    int
	Mass float64
	EN   float64
	Rad  float64
	Melt float64
	Row  int
	Grp  int
}{
	{"H", 1, 1.008, 2.20, 31, 14, 1, 1},
	{"He", 2, 4.003, 0, 28, 1, 1, 18},
	{"Li", 3, 6.94, 0.98, 128, 454, 2, 1},
	{"Be", 4, 9.012, 1.57, 96, 1560, 2, 2},
	{"B", 5, 10.81, 2.04, 84, 2349, 2, 13},
	{"C", 6, 12.011, 2.55, 76, 3823, 2, 14},
	{"N", 7, 14.007, 3.04, 71, 63, 2, 15},
	{"O", 8, 15.999, 3.44, 66, 54, 2, 16},
	{"F", 9, 18.998, 3.98, 57, 53, 2, 17},
	{"Ne", 10, 20.180, 0, 58, 25, 2, 18},
	{"Na", 11, 22.990, 0.93, 166, 371, 3, 1},
	{"Mg", 12, 24.305, 1.31, 141, 923, 3, 2},
	{"Al", 13, 26.982, 1.61, 121, 933, 3, 13},
	{"Si", 14, 28.085, 1.90, 111, 1687, 3, 14},
	{"P", 15, 30.974, 2.19, 107, 317, 3, 15},
	{"S", 16, 32.06, 2.58, 105, 388, 3, 16},
	{"Cl", 17, 35.45, 3.16, 102, 172, 3, 17},
	{"Ar", 18, 39.948, 0, 106, 84, 3, 18},
	{"K", 19, 39.098, 0.82, 203, 337, 4, 1},
	{"Ca", 20, 40.078, 1.00, 176, 1115, 4, 2},
	{"Sc", 21, 44.956, 1.36, 170, 1814, 4, 3},
	{"Ti", 22, 47.867, 1.54, 160, 1941, 4, 4},
	{"V", 23, 50.942, 1.63, 153, 2183, 4, 5},
	{"Cr", 24, 51.996, 1.66, 139, 2180, 4, 6},
	{"Mn", 25, 54.938, 1.55, 139, 1519, 4, 7},
	{"Fe", 26, 55.845, 1.83, 132, 1811, 4, 8},
	{"Co", 27, 58.933, 1.88, 126, 1768, 4, 9},
	{"Ni", 28, 58.693, 1.91, 124, 1728, 4, 10},
	{"Cu", 29, 63.546, 1.90, 132, 1358, 4, 11},
	{"Zn", 30, 65.38, 1.65, 122, 693, 4, 12},
	{"Ga", 31, 69.723, 1.81, 122, 303, 4, 13},
	{"Ge", 32, 72.630, 2.01, 120, 1211, 4, 14},
	{"As", 33, 74.922, 2.18, 119, 1090, 4, 15},
	{"Se", 34, 78.971, 2.55, 120, 494, 4, 16},
	{"Br", 35, 79.904, 2.96, 120, 266, 4, 17},
	{"Kr", 36, 83.798, 3.00, 116, 116, 4, 18},
	{"Rb", 37, 85.468, 0.82, 220, 312, 5, 1},
	{"Sr", 38, 87.62, 0.95, 195, 1050, 5, 2},
	{"Y", 39, 88.906, 1.22, 190, 1799, 5, 3},
	{"Zr", 40, 91.224, 1.33, 175, 2128, 5, 4},
	{"Nb", 41, 92.906, 1.60, 164, 2750, 5, 5},
	{"Mo", 42, 95.95, 2.16, 154, 2896, 5, 6},
	{"Tc", 43, 98.0, 1.90, 147, 2430, 5, 7},
	{"Ru", 44, 101.07, 2.20, 146, 2607, 5, 8},
	{"Rh", 45, 102.906, 2.28, 142, 2237, 5, 9},
	{"Pd", 46, 106.42, 2.20, 139, 1828, 5, 10},
	{"Ag", 47, 107.868, 1.93, 145, 1235, 5, 11},
	{"Cd", 48, 112.414, 1.69, 144, 594, 5, 12},
	{"In", 49, 114.818, 1.78, 142, 430, 5, 13},
	{"Sn", 50, 118.710, 1.96, 139, 505, 5, 14},
	{"Sb", 51, 121.760, 2.05, 139, 904, 5, 15},
	{"Te", 52, 127.60, 2.10, 138, 723, 5, 16},
	{"I", 53, 126.904, 2.66, 139, 387, 5, 17},
	{"Xe", 54, 131.293, 2.60, 140, 161, 5, 18},
	{"Cs", 55, 132.905, 0.79, 244, 302, 6, 1},
	{"Ba", 56, 137.327, 0.89, 215, 1000, 6, 2},
	{"La", 57, 138.905, 1.10, 207, 1193, 6, 3},
	{"Ce", 58, 140.116, 1.12, 204, 1068, 6, 3},
	{"Pr", 59, 140.908, 1.13, 203, 1208, 6, 3},
	{"Nd", 60, 144.242, 1.14, 201, 1297, 6, 3},
	{"Pm", 61, 145.0, 1.13, 199, 1315, 6, 3},
	{"Sm", 62, 150.36, 1.17, 198, 1345, 6, 3},
	{"Eu", 63, 151.964, 1.20, 198, 1099, 6, 3},
	{"Gd", 64, 157.25, 1.20, 196, 1585, 6, 3},
	{"Tb", 65, 158.925, 1.22, 194, 1629, 6, 3},
	{"Dy", 66, 162.500, 1.23, 192, 1680, 6, 3},
	{"Ho", 67, 164.930, 1.24, 192, 1734, 6, 3},
	{"Er", 68, 167.259, 1.24, 189, 1802, 6, 3},
	{"Tm", 69, 168.934, 1.25, 190, 1818, 6, 3},
	{"Yb", 70, 173.045, 1.10, 187, 1097, 6, 3},
	{"Lu", 71, 174.967, 1.27, 187, 1925, 6, 3},
	{"Hf", 72, 178.49, 1.30, 175, 2506, 6, 4},
	{"Ta", 73, 180.948, 1.50, 170, 3290, 6, 5},
	{"W", 74, 183.84, 2.36, 162, 3695, 6, 6},
	{"Re", 75, 186.207, 1.90, 151, 3459, 6, 7},
	{"Os", 76, 190.23, 2.20, 144, 3306, 6, 8},
	{"Ir", 77, 192.217, 2.20, 141, 2719, 6, 9},
	{"Pt", 78, 195.084, 2.28, 136, 2041, 6, 10},
	{"Au", 79, 196.967, 2.54, 136, 1337, 6, 11},
	{"Hg", 80, 200.592, 2.00, 132, 234, 6, 12},
	{"Tl", 81, 204.38, 1.62, 145, 577, 6, 13},
	{"Pb", 82, 207.2, 2.33, 146, 600, 6, 14},
	{"Bi", 83, 208.980, 2.02, 148, 544, 6, 15},
	{"Po", 84, 209.0, 2.00, 140, 527, 6, 16},
	{"At", 85, 210.0, 2.20, 150, 575, 6, 17},
	{"Rn", 86, 222.0, 0, 150, 202, 6, 18},
	{"Fr", 87, 223.0, 0.70, 260, 300, 7, 1},
	{"Ra", 88, 226.0, 0.90, 221, 973, 7, 2},
	{"Ac", 89, 227.0, 1.10, 215, 1323, 7, 3},
	{"Th", 90, 232.038, 1.30, 206, 2023, 7, 3},
	{"Pa", 91, 231.036, 1.50, 200, 1841, 7, 3},
	{"U", 92, 238.029, 1.38, 196, 1405, 7, 3},
}

// table maps symbol -> element, built at init.
var table = buildTable()

func buildTable() map[string]*Element {
	m := make(map[string]*Element, len(elementSeed))
	for _, s := range elementSeed {
		e := &Element{
			Symbol:            s.Sym,
			Z:                 s.Z,
			Mass:              s.Mass,
			Electronegativity: s.EN,
			CovalentRadius:    s.Rad,
			MeltingPoint:      s.Melt,
			Row:               s.Row,
			Group:             s.Grp,
		}
		e.NsValence, e.NpValence, e.NdValence, e.NfValence = valenceCounts(s.Z)
		m[s.Sym] = e
	}
	return m
}

// aufbauOrder lists subshells in filling order as (n, l, capacity).
var aufbauOrder = []struct{ n, l, cap int }{
	{1, 0, 2}, {2, 0, 2}, {2, 1, 6}, {3, 0, 2}, {3, 1, 6}, {4, 0, 2},
	{3, 2, 10}, {4, 1, 6}, {5, 0, 2}, {4, 2, 10}, {5, 1, 6}, {6, 0, 2},
	{4, 3, 14}, {5, 2, 10}, {6, 1, 6}, {7, 0, 2}, {5, 3, 14}, {6, 2, 10},
	{7, 1, 6},
}

// valenceCounts fills electrons by the Aufbau principle and counts
// valence electrons per subshell: s/p in the outermost shell n_max,
// d in shell n_max-1 (if partially filled), f in shell n_max-2.
// Aufbau exceptions (Cr, Cu, ...) are ignored — a documented
// approximation adequate for featurization.
func valenceCounts(z int) (s, p, d, f int) {
	filled := map[[2]int]int{}
	remaining := z
	nMax := 1
	for _, sh := range aufbauOrder {
		if remaining <= 0 {
			break
		}
		take := sh.cap
		if take > remaining {
			take = remaining
		}
		filled[[2]int{sh.n, sh.l}] = take
		remaining -= take
		if sh.l == 0 && take > 0 && sh.n > nMax {
			nMax = sh.n
		}
	}
	s = filled[[2]int{nMax, 0}]
	p = filled[[2]int{nMax, 1}]
	// d valence counts only when the (n-1)d shell is partially filled
	// (transition metals): a full d10 below a populated higher shell is
	// core-like, matching Magpie's valence bookkeeping closely enough.
	if v := filled[[2]int{nMax - 1, 2}]; v > 0 && v < 10 {
		d = v
	}
	if v := filled[[2]int{nMax - 2, 3}]; v > 0 && v < 14 {
		f = v
	}
	return s, p, d, f
}

// Lookup returns the element for a symbol.
func Lookup(symbol string) (*Element, bool) {
	e, ok := table[symbol]
	return e, ok
}
