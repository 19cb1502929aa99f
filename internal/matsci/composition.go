package matsci

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
)

// Composition maps element symbols to (possibly fractional) amounts —
// the pymatgen.Composition equivalent produced by the "matminer util"
// servable from strings like "NaCl", "SiO2" or "Ca(OH)2".
type Composition map[string]float64

// Parse errors.
var (
	ErrEmptyFormula   = errors.New("matsci: empty formula")
	ErrUnknownElement = errors.New("matsci: unknown element")
	ErrBadFormula     = errors.New("matsci: malformed formula")
)

// ParseComposition parses a chemical formula with nested parentheses
// and fractional amounts, e.g. "NaCl", "SiO2", "Ca(OH)2",
// "Li0.5Na0.5Cl", "Ba(Zr0.2Ti0.8)O3".
func ParseComposition(formula string) (Composition, error) {
	formula = strings.TrimSpace(formula)
	if formula == "" {
		return nil, ErrEmptyFormula
	}
	p := &parser{s: formula}
	comp, err := p.group(0)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("%w: unexpected %q at position %d", ErrBadFormula, p.s[p.pos], p.pos)
	}
	if len(comp) == 0 {
		return nil, ErrEmptyFormula
	}
	return comp, nil
}

type parser struct {
	s   string
	pos int
}

// group parses a sequence of (element|“(”group“)”)[amount] terms until a
// closing paren at this depth or end of input.
func (p *parser) group(depth int) (Composition, error) {
	out := Composition{}
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch {
		case c == ')':
			if depth == 0 {
				return nil, fmt.Errorf("%w: unbalanced ')' at %d", ErrBadFormula, p.pos)
			}
			return out, nil
		case c == '(':
			p.pos++
			inner, err := p.group(depth + 1)
			if err != nil {
				return nil, err
			}
			if p.pos >= len(p.s) || p.s[p.pos] != ')' {
				return nil, fmt.Errorf("%w: missing ')'", ErrBadFormula)
			}
			p.pos++
			mult := p.amount()
			for el, n := range inner {
				out[el] += n * mult
			}
		case unicode.IsUpper(rune(c)):
			sym := p.symbol()
			if _, ok := Lookup(sym); !ok {
				return nil, fmt.Errorf("%w: %q", ErrUnknownElement, sym)
			}
			out[sym] += p.amount()
		case c == ' ':
			p.pos++
		default:
			return nil, fmt.Errorf("%w: unexpected %q at position %d", ErrBadFormula, c, p.pos)
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("%w: missing ')'", ErrBadFormula)
	}
	return out, nil
}

// symbol consumes an element symbol: uppercase letter + optional
// lowercase letters.
func (p *parser) symbol() string {
	start := p.pos
	p.pos++
	for p.pos < len(p.s) && unicode.IsLower(rune(p.s[p.pos])) {
		p.pos++
	}
	return p.s[start:p.pos]
}

// amount consumes an optional decimal number (default 1).
func (p *parser) amount() float64 {
	start := p.pos
	for p.pos < len(p.s) && (unicode.IsDigit(rune(p.s[p.pos])) || p.s[p.pos] == '.') {
		p.pos++
	}
	if p.pos == start {
		return 1
	}
	v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil || v <= 0 {
		return 1
	}
	return v
}

// Fractions normalizes amounts to mole fractions, sorted by symbol for
// deterministic iteration.
func (c Composition) Fractions() ([]string, []float64) {
	syms := make([]string, 0, len(c))
	var total float64
	for s, n := range c {
		syms = append(syms, s)
		total += n
	}
	sort.Strings(syms)
	fr := make([]float64, len(syms))
	for i, s := range syms {
		fr[i] = c[s] / total
	}
	return syms, fr
}

// ReducedFormula renders a normalized formula string with amounts
// divided by their integer GCD when all are integers (NaCl not Na1Cl1).
func (c Composition) ReducedFormula() string {
	syms, _ := c.Fractions()
	// Try integer reduction.
	ints := make([]int, len(syms))
	allInt := true
	for i, s := range syms {
		v := c[s]
		if v != math.Trunc(v) {
			allInt = false
			break
		}
		ints[i] = int(v)
	}
	var sb strings.Builder
	if allInt {
		g := 0
		for _, v := range ints {
			g = gcd(g, v)
		}
		if g == 0 {
			g = 1
		}
		for i, s := range syms {
			sb.WriteString(s)
			if n := ints[i] / g; n != 1 {
				fmt.Fprintf(&sb, "%d", n)
			}
		}
		return sb.String()
	}
	for _, s := range syms {
		sb.WriteString(s)
		v := c[s]
		if v != 1 {
			sb.WriteString(strconv.FormatFloat(v, 'g', 6, 64))
		}
	}
	return sb.String()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}
