package value

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	kinds := []Kind{KindNull, KindBool, KindInt, KindFloat, KindString, KindTime, KindSpan, KindList}
	for _, k := range kinds {
		name := k.String()
		got, err := KindFromString(name)
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", name, err)
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, name, got)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("expected error for unknown kind name")
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null should be null")
	}
	if Bool(true).BoolVal() != true || Bool(false).BoolVal() != false {
		t.Error("Bool round trip failed")
	}
	if Int(-42).IntVal() != -42 {
		t.Error("Int round trip failed")
	}
	if Float(3.5).FloatVal() != 3.5 {
		t.Error("Float round trip failed")
	}
	if Str("node17").StrVal() != "node17" {
		t.Error("Str round trip failed")
	}
	now := time.Date(2017, 3, 27, 16, 43, 27, 0, time.UTC)
	if !Time(now).TimeVal().Equal(now) {
		t.Error("Time round trip failed")
	}
	s := Span(100, 50)
	if st, en := s.SpanBounds(); st != 50 || en != 100 {
		t.Errorf("Span should normalize bounds, got [%d,%d)", st, en)
	}
	if s.SpanDurationNanos() != 50 {
		t.Errorf("span duration = %d, want 50", s.SpanDurationNanos())
	}
	l := List(Int(1), Str("a"))
	if l.Len() != 2 || l.ListLen() != 2 || !l.ListAt(1).Equal(Str("a")) {
		t.Error("List round trip failed")
	}
	sl := StrList("a", "b")
	if sl.Len() != 2 || sl.ListAt(0).StrVal() != "a" {
		t.Error("StrList failed")
	}
}

func TestWrongKindAccessorsReturnZero(t *testing.T) {
	v := Str("x")
	if v.IntVal() != 0 || v.FloatVal() != 0 || v.BoolVal() || v.TimeNanosVal() != 0 {
		t.Error("wrong-kind accessors should return zero values")
	}
	if st, en := v.SpanBounds(); st != 0 || en != 0 {
		t.Error("SpanBounds on non-span should be zero")
	}
	if v.ListLen() != 0 {
		t.Error("ListLen on non-list should be 0")
	}
	if Int(3).StrVal() != "" {
		t.Error("StrVal on non-string should be empty")
	}
}

func TestAsFloatCoercions(t *testing.T) {
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Int(7), 7, true},
		{Float(2.5), 2.5, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{TimeNanos(3e9), 3, true},
		{Str("x"), 0, false},
		{Null(), 0, false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if got != c.want || ok != c.ok {
			t.Errorf("AsFloat(%v) = %v,%v want %v,%v", c.v, got, ok, c.want, c.ok)
		}
	}
}

func TestAsInt(t *testing.T) {
	if n, ok := Float(3.9).AsInt(); !ok || n != 3 {
		t.Errorf("AsInt(3.9) = %d,%v", n, ok)
	}
	if n, ok := Int(5).AsInt(); !ok || n != 5 {
		t.Errorf("AsInt(5) = %d,%v", n, ok)
	}
	if _, ok := Str("z").AsInt(); ok {
		t.Error("AsInt on string should fail")
	}
}

func TestCompareNumericAcrossKinds(t *testing.T) {
	if Int(3).Compare(Float(3.5)) >= 0 {
		t.Error("3 < 3.5 across kinds")
	}
	if Float(4.0).Compare(Int(4)) != 0 {
		t.Error("4.0 == 4 across kinds")
	}
	if Int(10).Compare(Int(2)) <= 0 {
		t.Error("10 > 2")
	}
}

func TestCompareStringsTimesSpansLists(t *testing.T) {
	if Str("a").Compare(Str("b")) >= 0 {
		t.Error("a < b")
	}
	if TimeNanos(5).Compare(TimeNanos(9)) >= 0 {
		t.Error("t5 < t9")
	}
	if Span(0, 10).Compare(Span(0, 20)) >= 0 {
		t.Error("span tie-break on end")
	}
	if List(Int(1), Int(2)).Compare(List(Int(1), Int(3))) >= 0 {
		t.Error("list lexicographic")
	}
	if List(Int(1)).Compare(List(Int(1), Int(0))) >= 0 {
		t.Error("shorter list first")
	}
}

func TestEqual(t *testing.T) {
	if Int(3).Equal(Float(3)) {
		t.Error("int 3 should not Equal float 3 (different kinds)")
	}
	if !Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN should Equal NaN by bits")
	}
	if !List(Str("a")).Equal(List(Str("a"))) {
		t.Error("equal lists")
	}
	if List(Str("a")).Equal(List(Str("b"))) {
		t.Error("unequal lists")
	}
	if Span(1, 2).Equal(Span(1, 3)) {
		t.Error("unequal spans")
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(17), Int(17)},
		{Str("rack17"), Str("rack17")},
		{List(Int(1), Str("a")), List(Int(1), Str("a"))},
		{Span(5, 10), Span(5, 10)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("equal values hash differently: %v", p[0])
		}
	}
	if Int(1).Hash() == Str("1").Hash() {
		t.Error("kind should participate in hash")
	}
}

func TestStringRendering(t *testing.T) {
	if Int(42).String() != "42" {
		t.Error("int render")
	}
	if Bool(true).String() != "true" {
		t.Error("bool render")
	}
	if Null().String() != "" {
		t.Error("null renders empty")
	}
	if List(Int(1), Int(2)).String() != "[1,2]" {
		t.Error("list render")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"", Null()},
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.5", Float(3.5)},
		{"true", Bool(true)},
		{"FALSE", Bool(false)},
		{"node42x", Str("node42x")},
		{"[1, 2]", List(Int(1), Int(2))},
		{"[]", List()},
	}
	for _, c := range cases {
		got := Parse(c.in)
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v (%v), want %v (%v)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
	ts := Parse("2017-03-27T16:43:27Z")
	if ts.Kind() != KindTime {
		t.Errorf("Parse time kind = %v", ts.Kind())
	}
	sp := Parse("2017-03-27T00:00:00Z/2017-03-28T00:00:00Z")
	if sp.Kind() != KindSpan {
		t.Errorf("Parse span kind = %v", sp.Kind())
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	vals := []Value{
		Int(9), Float(2.25), Bool(true), Str("hello"),
		Time(time.Date(2017, 11, 12, 0, 0, 0, 0, time.UTC)),
		Span(0, 1e9),
	}
	for _, v := range vals {
		got := Parse(v.String())
		if !got.Equal(v) {
			t.Errorf("Parse(String(%v)) = %v (%v)", v, got, got.Kind())
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Int(-5), Float(1.5), Float(math.NaN()),
		Float(math.Inf(1)), Str("x y"),
		Time(time.Date(2017, 3, 27, 16, 43, 27, 123456789, time.UTC)),
		Span(1000, 2000),
		List(Int(1), List(Str("nested"))),
	}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got Value
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !got.Equal(v) && !(math.IsInf(v.FloatVal(), 0) && math.IsInf(got.FloatVal(), 0)) {
			t.Errorf("JSON round trip %v -> %s -> %v", v, data, got)
		}
	}
}

func TestJSONRejectsBadPayloads(t *testing.T) {
	bad := []string{
		`{"k":"bogus"}`,
		`{"k":"int"}`,
		`{"k":"bool"}`,
		`{"k":"string"}`,
		`{"k":"time"}`,
		`{"k":"time","t":"notatime"}`,
		`{"k":"span","t":"2017-01-01T00:00:00Z"}`,
		`{"k":"float"}`,
	}
	for _, s := range bad {
		var v Value
		if err := json.Unmarshal([]byte(s), &v); err == nil {
			t.Errorf("expected error for %s", s)
		}
	}
}

func TestArithmetic(t *testing.T) {
	mustVal := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustVal(Add(Int(2), Int(3))); !got.Equal(Int(5)) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustVal(Add(Int(2), Float(0.5))); !got.Equal(Float(2.5)) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustVal(Sub(Int(2), Int(3))); !got.Equal(Int(-1)) {
		t.Errorf("2-3 = %v", got)
	}
	if got := mustVal(Div(Int(9), Int(2))); !got.Equal(Float(4.5)) {
		t.Errorf("9/2 = %v", got)
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("divide by zero should error")
	}
	if _, err := Add(Str("a"), Int(1)); err == nil {
		t.Error("string add should error")
	}
	// Time arithmetic.
	t0 := TimeNanos(10e9)
	if got := mustVal(Add(t0, Int(5))); got.TimeNanosVal() != 15e9 {
		t.Errorf("time+5s = %v", got)
	}
	if got := mustVal(Sub(t0, Int(4))); got.TimeNanosVal() != 6e9 {
		t.Errorf("time-4s = %v", got)
	}
	if got := mustVal(Sub(TimeNanos(20e9), TimeNanos(15e9))); !got.Equal(Float(5)) {
		t.Errorf("t-t = %v", got)
	}
	if got := mustVal(Add(Int(5), t0)); got.TimeNanosVal() != 15e9 {
		t.Errorf("5+time = %v", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]Value{Int(1), Int(2), Int(3)}); !got.Equal(Float(2)) {
		t.Errorf("mean = %v", got)
	}
	if got := Mean([]Value{Null(), Float(4)}); !got.Equal(Float(4)) {
		t.Errorf("mean skip nulls = %v", got)
	}
	if got := Mean(nil); !got.IsNull() {
		t.Errorf("empty mean = %v", got)
	}
	got := Mean([]Value{TimeNanos(10e9), TimeNanos(20e9)})
	if got.Kind() != KindTime || got.TimeNanosVal() != 15e9 {
		t.Errorf("time mean = %v", got)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(Float(0), Float(10), 0.25); !got.Equal(Float(2.5)) {
		t.Errorf("lerp = %v", got)
	}
	if got := Lerp(TimeNanos(0), TimeNanos(10e9), 0.5); got.TimeNanosVal() != 5e9 {
		t.Errorf("time lerp = %v", got)
	}
	if got := Lerp(Str("a"), Str("b"), 0.3); !got.Equal(Str("a")) {
		t.Errorf("nearest lerp low = %v", got)
	}
	if got := Lerp(Str("a"), Str("b"), 0.9); !got.Equal(Str("b")) {
		t.Errorf("nearest lerp high = %v", got)
	}
	// Clamping.
	if got := Lerp(Float(0), Float(10), -3); !got.Equal(Float(0)) {
		t.Errorf("clamped lerp = %v", got)
	}
	if got := Lerp(Float(0), Float(10), 7); !got.Equal(Float(10)) {
		t.Errorf("clamped lerp = %v", got)
	}
}
