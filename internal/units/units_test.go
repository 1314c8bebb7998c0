package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegisterValidation(t *testing.T) {
	d := NewDict()
	if err := d.Register(Unit{Name: "", Dimension: "x", Scale: 1}); err == nil {
		t.Error("empty name should fail")
	}
	if err := d.Register(Unit{Name: "u", Dimension: "", Scale: 1}); err == nil {
		t.Error("empty dimension should fail")
	}
	if err := d.Register(Unit{Name: "u", Dimension: "x", Scale: 0}); err == nil {
		t.Error("zero scale should fail")
	}
	if err := d.Register(Unit{Name: "a/b", Dimension: "x", Scale: 1}); err == nil {
		t.Error("composite syntax in name should fail")
	}
	if err := d.Register(Unit{Name: "u", Dimension: "x", Scale: 1}); err != nil {
		t.Fatal(err)
	}
	// Identical re-registration is a no-op.
	if err := d.Register(Unit{Name: "u", Dimension: "x", Scale: 1}); err != nil {
		t.Errorf("identical re-registration should succeed: %v", err)
	}
	// Homonym: same name, different definition.
	if err := d.Register(Unit{Name: "u", Dimension: "y", Scale: 1}); err == nil {
		t.Error("homonym should fail")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegister should panic on invalid unit")
		}
	}()
	NewDict().MustRegister(Unit{})
}

func TestParse(t *testing.T) {
	cases := []struct{ in, want string }{
		{"seconds", "seconds"},
		{"instructions/seconds", "instructions/seconds"},
		{"a/b/c", "a/b/c"}, // left associative
		{"list<identifier>", "list<identifier>"},
		{"list<a/b>", "list<a/b>"},
		{" seconds ", "seconds"},
	}
	for _, c := range cases {
		e, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if e.String() != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, e.String(), c.want)
		}
	}
	// a/b/c is (a/b)/c.
	e, _ := Parse("a/b/c")
	if e.Kind != "rate" || e.Num.String() != "a/b" || e.Den.String() != "c" {
		t.Errorf("a/b/c should parse left-associative, got %v / %v", e.Num, e.Den)
	}
	for _, bad := range []string{"", "list<a", "a<b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestDimensionResolution(t *testing.T) {
	d := Default()
	cases := []struct{ unit, dim string }{
		{"seconds", "time_duration"},
		{"degrees_celsius", "temperature"},
		{"instructions/seconds", "instructions/time_duration"},
		{"list<identifier>", "list<identity>"},
	}
	for _, c := range cases {
		got, err := d.Dimension(c.unit)
		if err != nil {
			t.Fatalf("Dimension(%q): %v", c.unit, err)
		}
		if got != c.dim {
			t.Errorf("Dimension(%q) = %q, want %q", c.unit, got, c.dim)
		}
	}
	if _, err := d.Dimension("furlongs"); err == nil {
		t.Error("unknown unit should fail")
	}
	if _, err := d.Dimension("furlongs/seconds"); err == nil {
		t.Error("unknown rate numerator should fail")
	}
	if _, err := d.Dimension("list<furlongs>"); err == nil {
		t.Error("unknown list element should fail")
	}
}

func TestConvertSimple(t *testing.T) {
	d := Default()
	cases := []struct {
		v        float64
		from, to string
		want     float64
	}{
		{120, "seconds", "minutes", 2},
		{2, "hours", "minutes", 120},
		{0, "degrees_celsius", "kelvin", 273.15},
		{32, "degrees_fahrenheit", "degrees_celsius", 0},
		{100, "degrees_celsius", "degrees_fahrenheit", 212},
		{1500, "megahertz", "gigahertz", 1.5},
		{5, "seconds", "seconds", 5},
	}
	for _, c := range cases {
		got, err := d.Convert(c.v, c.from, c.to)
		if err != nil {
			t.Fatalf("Convert(%v,%q,%q): %v", c.v, c.from, c.to, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Convert(%v,%q,%q) = %v, want %v", c.v, c.from, c.to, got, c.want)
		}
	}
}

func TestConvertRates(t *testing.T) {
	d := Default()
	// 1000 instructions/second = 1 instruction/millisecond.
	got, err := d.Convert(1000, "instructions/seconds", "instructions/milliseconds")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("rate conversion = %v, want 1", got)
	}
	// 60 counts/minute = 1 count/second.
	got, err = d.Convert(60, "count/minutes", "count/seconds")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("rate conversion = %v, want 1", got)
	}
}

func TestConvertErrors(t *testing.T) {
	d := Default()
	if _, err := d.Convert(1, "seconds", "watts"); err == nil {
		t.Error("cross-dimension conversion should fail")
	}
	if _, err := d.Convert(1, "nope", "watts"); err == nil {
		t.Error("unknown unit should fail")
	}
	if _, err := d.Convert(1, "list<identifier>", "list<identifier>x"); err == nil {
		t.Error("bad list conversion should fail")
	}
	if _, err := d.Convert(1, "seconds/watts", "watts/seconds"); err == nil {
		t.Error("inverted rate dimensions should fail")
	}
}

func TestConvertible(t *testing.T) {
	d := Default()
	if !d.Convertible("seconds", "minutes") {
		t.Error("seconds~minutes")
	}
	if d.Convertible("seconds", "watts") {
		t.Error("seconds!~watts")
	}
	if d.Convertible("bogus", "watts") {
		t.Error("unknown unit is not convertible")
	}
}

func TestHelpers(t *testing.T) {
	if Rate("a", "b") != "a/b" {
		t.Error("Rate")
	}
	if ListOf("x") != "list<x>" {
		t.Error("ListOf")
	}
	if e, ok := IsList("list<identifier>"); !ok || e != "identifier" {
		t.Error("IsList positive")
	}
	if _, ok := IsList("identifier"); ok {
		t.Error("IsList negative")
	}
}

func TestNamesSorted(t *testing.T) {
	d := Default()
	names := d.Names()
	if len(names) == 0 {
		t.Fatal("default dict should not be empty")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
	if _, ok := d.Lookup("seconds"); !ok {
		t.Error("seconds should be registered")
	}
}

func TestQuickConversionRoundTrip(t *testing.T) {
	d := Default()
	pairs := [][2]string{
		{"seconds", "minutes"},
		{"degrees_celsius", "degrees_fahrenheit"},
		{"watts", "kilowatts"},
		{"instructions/seconds", "instructions/milliseconds"},
	}
	prop := func(v float64, pick uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
		p := pairs[int(pick)%len(pairs)]
		mid, err := d.Convert(v, p[0], p[1])
		if err != nil {
			return false
		}
		back, err := d.Convert(mid, p[1], p[0])
		if err != nil {
			return false
		}
		return math.Abs(back-v) <= 1e-6*(1+math.Abs(v))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickConversionComposesThroughBase(t *testing.T) {
	d := Default()
	prop := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
		// hours -> seconds -> minutes must equal hours -> minutes.
		s, err := d.Convert(v, "hours", "seconds")
		if err != nil {
			return false
		}
		m1, err := d.Convert(s, "seconds", "minutes")
		if err != nil {
			return false
		}
		m2, err := d.Convert(v, "hours", "minutes")
		if err != nil {
			return false
		}
		return math.Abs(m1-m2) <= 1e-6*(1+math.Abs(m2))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEnergyAndCurrentUnits(t *testing.T) {
	d := Default()
	got, err := d.Convert(1, "kilowatt_hours", "joules")
	if err != nil || math.Abs(got-3.6e6) > 1e-6 {
		t.Errorf("1 kWh = %v J, %v", got, err)
	}
	got, err = d.Convert(2500, "milliamperes", "amperes")
	if err != nil || math.Abs(got-2.5) > 1e-12 {
		t.Errorf("2500 mA = %v A, %v", got, err)
	}
	// Energy = power x time: joules/seconds has the power-family dimension
	// structure (energy/time_duration).
	dim, err := d.Dimension("joules/seconds")
	if err != nil || dim != "energy/time_duration" {
		t.Errorf("joules/seconds dimension = %q, %v", dim, err)
	}
}

// perValueConvert is the conversion formula Convert applied per value
// before conversions were resolved once: every call parses both units and
// resolves both dimensions.
func perValueConvert(d *Dict, v float64, from, to string) float64 {
	if from == to {
		return v
	}
	fe, _ := Parse(from)
	te, _ := Parse(to)
	if fe.Kind == "simple" && te.Kind == "simple" {
		fu, tu := d.units[fe.Name], d.units[te.Name]
		base := v*fu.Scale + fu.Offset
		return (base - tu.Offset) / tu.Scale
	}
	fs, _ := d.linearScale(fe)
	ts, _ := d.linearScale(te)
	return v * fs / ts
}

// TestConverterMatchesPerValueFormula pins Converter bit for bit to the
// per-value formula for every same-dimension pair of simple units in the
// default dictionary, and for rate pairs over them, on values that include
// signed zeros, NaN and the infinities.
func TestConverterMatchesPerValueFormula(t *testing.T) {
	d := Default()
	vals := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, -1, 273.15, -40, 1e-300, 6.02e23, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var pairs [][2]string
	names := d.Names()
	for _, a := range names {
		for _, b := range names {
			if d.units[a].Dimension == d.units[b].Dimension {
				pairs = append(pairs, [2]string{a, b})
			}
		}
	}
	simple := len(pairs)
	for _, p := range pairs[:simple] {
		for _, den := range []string{"seconds", "minutes"} {
			pairs = append(pairs, [2]string{Rate(p[0], "seconds"), Rate(p[1], den)})
		}
	}
	for _, p := range pairs {
		conv, err := d.Converter(p[0], p[1])
		if err != nil {
			t.Fatalf("Converter(%q, %q): %v", p[0], p[1], err)
		}
		for _, v := range vals {
			got, want := conv(v), perValueConvert(d, v, p[0], p[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%q -> %q at %v: got %v (%#x), want %v (%#x)",
					p[0], p[1], v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if c, err := d.Convert(v, p[0], p[1]); err != nil || math.Float64bits(c) != math.Float64bits(want) {
				t.Errorf("Convert(%v, %q, %q) = %v, %v; want %v", v, p[0], p[1], c, err, want)
			}
		}
	}
	if simple < 50 {
		t.Fatalf("only %d same-dimension simple pairs; the default dictionary shrank?", simple)
	}
}

func TestConverterErrorsMatchConvert(t *testing.T) {
	d := Default()
	for _, p := range [][2]string{
		{"seconds", "watts"}, {"nope", "watts"}, {"list<identifier>", "list<identifier>x"},
		{"seconds/watts", "watts/seconds"}, {"list<identifier>", "list<seconds>"},
	} {
		_, cerr := d.Converter(p[0], p[1])
		_, err := d.Convert(1, p[0], p[1])
		if cerr == nil || err == nil || cerr.Error() != err.Error() {
			t.Errorf("%q -> %q: Converter error %v, Convert error %v", p[0], p[1], cerr, err)
		}
	}
}
