// Package value implements the dynamically typed cell values that populate
// ScrubJay datasets. A Value is a small tagged union covering the types that
// appear in HPC monitoring data: integers, floats, strings, booleans,
// timestamps, time spans, and lists. Values are immutable, comparable along
// ordered kinds, hashable for join keys, and round-trip through JSON.
package value

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindTime // an instant, stored as Unix nanoseconds
	KindSpan // a half-open interval [Start, End) of Unix nanoseconds
	KindList // an ordered list of Values
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindSpan:
		return "span"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// KindFromString parses a kind name produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "null":
		return KindNull, nil
	case "bool":
		return KindBool, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "string":
		return KindString, nil
	case "time":
		return KindTime, nil
	case "span":
		return KindSpan, nil
	case "list":
		return KindList, nil
	default:
		return KindNull, fmt.Errorf("value: unknown kind %q", s)
	}
}

// Value is an immutable dynamically typed cell. The zero Value is Null.
//
// The layout is 48 bytes: a list keeps a pointer to its slice header
// rather than the header itself, which would take 24 bytes in every value.
// Every field is a plain Go type, so reflect.DeepEqual compares values by
// content.
type Value struct {
	_    [0]func() // keeps == on Value a compile error
	kind Kind
	num  int64 // bool (0/1), int, float bits, time nanos, span start
	num2 int64 // span end
	str  string
	list *[]Value // nil unless kind is KindList
}

// listOf wraps vs as a list value without copying it.
func listOf(vs []Value) Value { return Value{kind: KindList, list: &vs} }

// Null returns the null value.
func Null() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n int64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: i} }

// Float returns a floating-point value.
func Float(f float64) Value {
	return Value{kind: KindFloat, num: int64(math.Float64bits(f))}
}

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Time returns a timestamp value from a time.Time.
func Time(t time.Time) Value { return Value{kind: KindTime, num: t.UnixNano()} }

// TimeNanos returns a timestamp value from Unix nanoseconds.
func TimeNanos(ns int64) Value { return Value{kind: KindTime, num: ns} }

// Span returns a half-open time span [start, end) in Unix nanoseconds.
// If end < start the bounds are swapped so spans are always well formed.
func Span(startNanos, endNanos int64) Value {
	if endNanos < startNanos {
		startNanos, endNanos = endNanos, startNanos
	}
	return Value{kind: KindSpan, num: startNanos, num2: endNanos}
}

// SpanOf builds a span from two time.Time endpoints.
func SpanOf(start, end time.Time) Value { return Span(start.UnixNano(), end.UnixNano()) }

// List returns a list value containing vs. The slice is copied.
func List(vs ...Value) Value {
	cp := make([]Value, len(vs))
	copy(cp, vs)
	return listOf(cp)
}

// StrList builds a list of string values, a common shape for node lists.
func StrList(ss ...string) Value {
	vs := make([]Value, len(ss))
	for i, s := range ss {
		vs[i] = Str(s)
	}
	return listOf(vs)
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// BoolVal returns the boolean payload; false if v is not a bool.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.num != 0 }

// IntVal returns the integer payload; 0 if v is not an int.
func (v Value) IntVal() int64 {
	if v.kind != KindInt {
		return 0
	}
	return v.num
}

// FloatVal returns the float payload; 0 if v is not a float.
func (v Value) FloatVal() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.num))
}

// AsFloat coerces numeric, bool, and time values to float64.
// Times coerce to seconds since the Unix epoch. The second result reports
// whether the coercion was meaningful.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.num), true
	case KindFloat:
		return math.Float64frombits(uint64(v.num)), true
	case KindBool:
		if v.num != 0 {
			return 1, true
		}
		return 0, true
	case KindTime:
		return float64(v.num) / 1e9, true
	default:
		return 0, false
	}
}

// AsInt coerces numeric values to int64, truncating floats.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.num, true
	case KindFloat:
		return int64(math.Float64frombits(uint64(v.num))), true
	case KindBool:
		return v.num, true
	default:
		return 0, false
	}
}

// StrVal returns the string payload; "" if v is not a string.
func (v Value) StrVal() string {
	if v.kind != KindString {
		return ""
	}
	return v.str
}

// TimeNanosVal returns the timestamp payload in Unix nanoseconds.
func (v Value) TimeNanosVal() int64 {
	if v.kind != KindTime {
		return 0
	}
	return v.num
}

// TimeVal returns the timestamp payload as a time.Time in UTC.
func (v Value) TimeVal() time.Time { return time.Unix(0, v.TimeNanosVal()).UTC() }

// SpanBounds returns the [start, end) bounds of a span in Unix nanoseconds.
func (v Value) SpanBounds() (start, end int64) {
	if v.kind != KindSpan {
		return 0, 0
	}
	return v.num, v.num2
}

// SpanDurationNanos returns end-start for a span; 0 otherwise.
func (v Value) SpanDurationNanos() int64 {
	if v.kind != KindSpan {
		return 0
	}
	return v.num2 - v.num
}

// ListLen returns the number of elements of a list; 0 if v is not a list.
func (v Value) ListLen() int {
	if v.kind != KindList {
		return 0
	}
	return len(*v.list)
}

// ListAt returns element i of a list. Like every accessor it copies a
// value out: no method hands out a list's backing slice, so a list shared
// by many rows cannot be written through.
func (v Value) ListAt(i int) Value { return (*v.list)[i] }

// Len returns the length of a list or string value, 0 otherwise.
func (v Value) Len() int {
	switch v.kind {
	case KindList:
		return len(*v.list)
	case KindString:
		return len(v.str)
	default:
		return 0
	}
}

// Equal reports deep equality between two values. Ints and floats of equal
// magnitude are NOT equal (they differ in kind); use Compare for ordering
// across numeric kinds.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.str == o.str
	case KindList:
		vl, ol := *v.list, *o.list
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	case KindSpan:
		return v.num == o.num && v.num2 == o.num2
	case KindFloat:
		// Compare by bits so NaN == NaN for dataset dedup purposes.
		return v.num == o.num
	default:
		return v.num == o.num
	}
}

// Ordered reports whether v belongs to a kind with a total order
// (numbers, strings, times, bools).
func (v Value) Ordered() bool {
	switch v.kind {
	case KindBool, KindInt, KindFloat, KindString, KindTime:
		return true
	default:
		return false
	}
}

// Compare orders two values. Numeric kinds (int, float, bool) compare by
// magnitude across kinds. Strings compare lexically, times chronologically.
// Nulls sort first. Mixed non-numeric kinds order by kind tag so that
// sorting heterogeneous data is deterministic. Spans order by start then
// end; lists lexicographically.
func (v Value) Compare(o Value) int {
	vn, vok := v.AsFloat()
	on, ook := o.AsFloat()
	if vok && ook && v.kind != KindTime && o.kind != KindTime {
		switch {
		case vn < on:
			return -1
		case vn > on:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		return int(v.kind) - int(o.kind)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindString:
		return strings.Compare(v.str, o.str)
	case KindTime:
		return cmpInt64(v.num, o.num)
	case KindSpan:
		if c := cmpInt64(v.num, o.num); c != 0 {
			return c
		}
		return cmpInt64(v.num2, o.num2)
	case KindList:
		vl, ol := *v.list, *o.list
		n := min(len(vl), len(ol))
		for i := 0; i < n; i++ {
			if c := vl[i].Compare(ol[i]); c != 0 {
				return c
			}
		}
		return len(vl) - len(ol)
	default:
		return cmpInt64(v.num, o.num)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Hash returns a 64-bit hash suitable for join keys and partitioning.
// Equal values hash identically.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	v.hashInto(h)
	return h.Sum64()
}

type hasher interface {
	Write(p []byte) (int, error)
}

func (v Value) hashInto(h hasher) {
	var tag [1]byte
	tag[0] = byte(v.kind)
	h.Write(tag[:])
	switch v.kind {
	case KindString:
		h.Write([]byte(v.str))
	case KindList:
		for _, e := range *v.list {
			e.hashInto(h)
		}
	default:
		var buf [16]byte
		putInt64(buf[:8], v.num)
		putInt64(buf[8:], v.num2)
		h.Write(buf[:])
	}
}

func putInt64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

// String renders the value for display and CSV unwrapping.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindFloat:
		s := strconv.FormatFloat(math.Float64frombits(uint64(v.num)), 'g', -1, 64)
		// Keep a float marker so text round-trips to the float kind
		// ("61" would re-parse as an int).
		if !strings.ContainsAny(s, ".eEnI") {
			s += ".0"
		}
		return s
	case KindString:
		return v.str
	case KindTime:
		return v.TimeVal().Format(time.RFC3339Nano)
	case KindSpan:
		return fmt.Sprintf("%s/%s",
			time.Unix(0, v.num).UTC().Format(time.RFC3339Nano),
			time.Unix(0, v.num2).UTC().Format(time.RFC3339Nano))
	case KindList:
		vl := *v.list
		parts := make([]string, len(vl))
		for i, e := range vl {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ",") + "]"
	default:
		return "?"
	}
}

// Parse attempts to interpret a raw text field (e.g. a CSV cell) as the most
// specific kind: int, float, bool, RFC3339 time, span ("t1/t2"), falling back
// to string. Empty text parses as null.
func Parse(text string) Value {
	if text == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(text, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return Float(f)
	}
	switch text {
	case "true", "True", "TRUE":
		return Bool(true)
	case "false", "False", "FALSE":
		return Bool(false)
	}
	if t, err := time.Parse(time.RFC3339Nano, text); err == nil {
		return Time(t)
	}
	if i := strings.IndexByte(text, '/'); i > 0 {
		t1, err1 := time.Parse(time.RFC3339Nano, text[:i])
		t2, err2 := time.Parse(time.RFC3339Nano, text[i+1:])
		if err1 == nil && err2 == nil {
			return SpanOf(t1, t2)
		}
	}
	if strings.HasPrefix(text, "[") && strings.HasSuffix(text, "]") {
		inner := text[1 : len(text)-1]
		if inner == "" {
			return List()
		}
		parts := strings.Split(inner, ",")
		vs := make([]Value, len(parts))
		for i, p := range parts {
			vs[i] = Parse(strings.TrimSpace(p))
		}
		return List(vs...)
	}
	return Str(text)
}
