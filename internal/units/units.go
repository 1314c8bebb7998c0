// Package units implements ScrubJay's unit type system (§4.2 of the paper).
//
// A unit names the scale in which a measurement was recorded ("degrees
// Celsius", "seconds"). Units live on dimensions; only units sharing a
// dimension are interconvertible. Conversions are affine (scale + offset),
// which covers every physical unit in HPC monitoring data. The package also
// recognizes two structural composites: rate units written "num/den"
// (e.g. "instructions/second") and list units written "list<elem>"
// (e.g. "list<node_id>"), matching the paper's derived units.
package units

import (
	"fmt"
	"sort"
	"strings"
)

// Unit is a single entry in the unit dictionary.
type Unit struct {
	// Name is the canonical unit name. Names are unique within a
	// dictionary: the semantic dictionary forbids homonyms.
	Name string
	// Dimension is the physical or conceptual dimension the unit measures
	// (e.g. "time", "temperature"). Units convert only within a dimension.
	Dimension string
	// Scale and Offset define the affine map to the dimension's base unit:
	// base = value*Scale + Offset.
	Scale  float64
	Offset float64
}

// Dict is a dictionary of units. The zero value is empty; use NewDict or
// Default.
type Dict struct {
	units map[string]Unit
}

// NewDict returns an empty unit dictionary.
func NewDict() *Dict {
	return &Dict{units: make(map[string]Unit)}
}

// Register adds a unit. Registering the same name twice with a different
// definition is a homonym and returns an error; re-registering an identical
// definition is a no-op (so shared dictionaries merge cleanly).
func (d *Dict) Register(u Unit) error {
	if u.Name == "" {
		return fmt.Errorf("units: unit name must be non-empty")
	}
	if u.Dimension == "" {
		return fmt.Errorf("units: unit %q must name a dimension", u.Name)
	}
	if u.Scale == 0 {
		return fmt.Errorf("units: unit %q must have a non-zero scale", u.Name)
	}
	if strings.ContainsAny(u.Name, "/<>") {
		return fmt.Errorf("units: unit name %q may not contain composite syntax characters", u.Name)
	}
	if prev, ok := d.units[u.Name]; ok {
		if prev != u {
			return fmt.Errorf("units: homonym: %q already registered with a different definition", u.Name)
		}
		return nil
	}
	d.units[u.Name] = u
	return nil
}

// MustRegister is Register but panics on error; for building dictionaries in
// package initialization.
func (d *Dict) MustRegister(u Unit) {
	if err := d.Register(u); err != nil {
		panic(err)
	}
}

// Lookup returns the unit definition for a simple (non-composite) name.
func (d *Dict) Lookup(name string) (Unit, bool) {
	u, ok := d.units[name]
	return u, ok
}

// Names returns all registered simple unit names, sorted.
func (d *Dict) Names() []string {
	names := make([]string, 0, len(d.units))
	for n := range d.units {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Expr is a parsed unit expression: a simple unit, a rate, or a list.
type Expr struct {
	// Kind is one of "simple", "rate", "list".
	Kind string
	// Name is set for simple units.
	Name string
	// Num and Den are set for rate units.
	Num, Den *Expr
	// Elem is set for list units.
	Elem *Expr
}

// String renders the expression back to its canonical written form.
func (e *Expr) String() string {
	switch e.Kind {
	case "simple":
		return e.Name
	case "rate":
		return e.Num.String() + "/" + e.Den.String()
	case "list":
		return "list<" + e.Elem.String() + ">"
	default:
		return "?"
	}
}

// Parse parses a unit expression: NAME, NUM/DEN, or list<ELEM>.
// Rates associate left: "a/b/c" parses as "(a/b)/c".
func Parse(s string) (*Expr, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("units: empty unit expression")
	}
	if strings.HasPrefix(s, "list<") {
		if !strings.HasSuffix(s, ">") {
			return nil, fmt.Errorf("units: unterminated list unit %q", s)
		}
		elem, err := Parse(s[len("list<") : len(s)-1])
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: "list", Elem: elem}, nil
	}
	// Split on the last top-level '/' (outside any list<>).
	depth := 0
	slash := -1
	for i, r := range s {
		switch r {
		case '<':
			depth++
		case '>':
			depth--
		case '/':
			if depth == 0 {
				slash = i
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("units: unbalanced angle brackets in %q", s)
	}
	if slash >= 0 {
		num, err := Parse(s[:slash])
		if err != nil {
			return nil, err
		}
		den, err := Parse(s[slash+1:])
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: "rate", Num: num, Den: den}, nil
	}
	return &Expr{Kind: "simple", Name: s}, nil
}

// Dimension resolves the dimension of a unit expression against the
// dictionary. Rates have dimension "num_dim/den_dim"; lists have
// "list<elem_dim>".
func (d *Dict) Dimension(expr string) (string, error) {
	e, err := Parse(expr)
	if err != nil {
		return "", err
	}
	return d.dimensionOf(e)
}

func (d *Dict) dimensionOf(e *Expr) (string, error) {
	switch e.Kind {
	case "simple":
		u, ok := d.units[e.Name]
		if !ok {
			return "", fmt.Errorf("units: unknown unit %q", e.Name)
		}
		return u.Dimension, nil
	case "rate":
		nd, err := d.dimensionOf(e.Num)
		if err != nil {
			return "", err
		}
		dd, err := d.dimensionOf(e.Den)
		if err != nil {
			return "", err
		}
		return nd + "/" + dd, nil
	case "list":
		ed, err := d.dimensionOf(e.Elem)
		if err != nil {
			return "", err
		}
		return "list<" + ed + ">", nil
	default:
		return "", fmt.Errorf("units: bad expression kind %q", e.Kind)
	}
}

// Convert converts a scalar from one unit expression to another. Both must
// resolve to the same dimension. Affine offsets apply only to simple->simple
// conversions; composite conversions are purely linear (a rate like
// celsius/second has no meaningful offset).
func (d *Dict) Convert(v float64, from, to string) (float64, error) {
	conv, err := d.Converter(from, to)
	if err != nil {
		return 0, err
	}
	return conv(v), nil
}

// Converter resolves a conversion once and returns it as a function, so a
// column converts with one lookup instead of one per value. The function
// performs exactly Convert's float operations: identity when from == to,
// (v*fromScale+fromOffset-toOffset)/toScale between simple units, and
// v*fromScale/toScale between composites. The error is Convert's.
func (d *Dict) Converter(from, to string) (func(float64) float64, error) {
	if from == to {
		return identity, nil
	}
	// Registered names are simple (they cannot hold composite syntax), so
	// the common case needs no parse.
	if fu, ok := d.units[from]; ok {
		if tu, ok := d.units[to]; ok && fu.Dimension == tu.Dimension {
			return affine(fu, tu), nil
		}
	}
	fe, err := Parse(from)
	if err != nil {
		return nil, err
	}
	te, err := Parse(to)
	if err != nil {
		return nil, err
	}
	fd, err := d.dimensionOf(fe)
	if err != nil {
		return nil, err
	}
	td, err := d.dimensionOf(te)
	if err != nil {
		return nil, err
	}
	if fd != td {
		return nil, fmt.Errorf("units: cannot convert %q (%s) to %q (%s): different dimensions", from, fd, to, td)
	}
	if fe.Kind == "simple" && te.Kind == "simple" {
		return affine(d.units[fe.Name], d.units[te.Name]), nil
	}
	if fe.Kind == "list" || te.Kind == "list" {
		return nil, fmt.Errorf("units: list units are not scalar-convertible")
	}
	fs, err := d.linearScale(fe)
	if err != nil {
		return nil, err
	}
	ts, err := d.linearScale(te)
	if err != nil {
		return nil, err
	}
	return func(v float64) float64 { return v * fs / ts }, nil
}

func identity(v float64) float64 { return v }

// affine converts between two simple units through their dimension's base.
func affine(fu, tu Unit) func(float64) float64 {
	fs, fo, ts, to := fu.Scale, fu.Offset, tu.Scale, tu.Offset
	return func(v float64) float64 {
		base := v*fs + fo
		return (base - to) / ts
	}
}

// linearScale returns the multiplicative factor from the expression to the
// base units of its dimension, ignoring offsets (valid for rates).
func (d *Dict) linearScale(e *Expr) (float64, error) {
	switch e.Kind {
	case "simple":
		u, ok := d.units[e.Name]
		if !ok {
			return 0, fmt.Errorf("units: unknown unit %q", e.Name)
		}
		return u.Scale, nil
	case "rate":
		n, err := d.linearScale(e.Num)
		if err != nil {
			return 0, err
		}
		de, err := d.linearScale(e.Den)
		if err != nil {
			return 0, err
		}
		return n / de, nil
	default:
		return 0, fmt.Errorf("units: expression %q has no linear scale", e.String())
	}
}

// Convertible reports whether two unit expressions share a dimension (and
// therefore can be converted).
func (d *Dict) Convertible(from, to string) bool {
	fd, err := d.Dimension(from)
	if err != nil {
		return false
	}
	td, err := d.Dimension(to)
	if err != nil {
		return false
	}
	return fd == td
}

// Rate builds the canonical rate unit name num/den.
func Rate(num, den string) string { return num + "/" + den }

// ListOf builds the canonical list unit name list<elem>.
func ListOf(elem string) string { return "list<" + elem + ">" }

// IsList reports whether a unit expression is a list unit, returning the
// element expression text when so.
func IsList(expr string) (string, bool) {
	if strings.HasPrefix(expr, "list<") && strings.HasSuffix(expr, ">") {
		return expr[len("list<") : len(expr)-1], true
	}
	return "", false
}
