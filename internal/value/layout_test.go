package value

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

var sinkValue Value

// TestValueLayout pins the 48-byte Value: the scalar and string
// constructors allocate nothing, the string and list accessors return
// nothing for another kind, and reflect.DeepEqual compares strings and
// lists by content, not by where their bytes live.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 48", got)
	}
	s := "node-17"
	ctors := map[string]func(){
		"Str":       func() { sinkValue = Str(s) },
		"Span":      func() { sinkValue = Span(7, 3) },
		"TimeNanos": func() { sinkValue = TimeNanos(42) },
		"Float":     func() { sinkValue = Float(1.5) },
	}
	for name, f := range ctors {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %.0f allocations, want 0", name, n)
		}
	}
	others := []Value{
		Null(), Bool(true), Int(-3), Float(2.5), TimeNanos(9),
		Span(0, 0), Span(5, 1<<40), Span(-8, 8),
	}
	for _, v := range others {
		if got := v.StrVal(); got != "" {
			t.Errorf("%s %v: StrVal = %q, want \"\"", v.Kind(), v, got)
		}
		if got := v.ListLen(); got != 0 {
			t.Errorf("%s %v: ListLen = %d, want 0", v.Kind(), v, got)
		}
		if got := v.Len(); got != 0 {
			t.Errorf("%s %v: Len = %d, want 0", v.Kind(), v, got)
		}
	}
	if got := List(Int(1)).StrVal(); got != "" {
		t.Errorf("list: StrVal = %q, want \"\"", got)
	}
	if got := Str("ab").ListLen(); got != 0 {
		t.Errorf("string: ListLen = %d, want 0", got)
	}
	if l := List(Int(1), Str("x")); l.ListLen() != 2 || !l.ListAt(1).Equal(Str("x")) {
		t.Errorf("ListLen/ListAt of %v, want [1,x]", l)
	}
	if got := Str(s[5:]).StrVal(); got != "17" {
		t.Errorf("substring StrVal = %q, want \"17\"", got)
	}
	a, b := strings.Repeat("n", 3), strings.Repeat("n", 3) // two allocations
	if !reflect.DeepEqual(Row{"s": Str(a), "l": StrList(a)}, Row{"s": Str(b), "l": StrList(b)}) {
		t.Error("DeepEqual: equal strings in different allocations compare unequal")
	}
	if reflect.DeepEqual(Row{"s": Str(a)}, Row{"s": Str("nnm")}) || reflect.DeepEqual(StrList(a), StrList("nnm")) {
		t.Error("DeepEqual: different strings compare equal")
	}
}

// TestValueHandsOutNoStorage holds values immutable: no exported method
// returns a slice or map, so no caller can write into a list that many
// rows share. The only exceptions are the byte encoders, whose []byte is
// fresh or the caller's own buffer; writing through those must leave the
// value unchanged.
func TestValueHandsOutNoStorage(t *testing.T) {
	encoders := map[string]bool{"AppendBinary": true, "MarshalJSON": true}
	bytesType := reflect.TypeOf([]byte(nil))
	typ := reflect.TypeOf(&Value{})
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		for o := 0; o < m.Type.NumOut(); o++ {
			out := m.Type.Out(o)
			if k := out.Kind(); (k == reflect.Slice || k == reflect.Map) && !(encoders[m.Name] && out == bytesType) {
				t.Errorf("Value.%s returns a %v: a method must not hand out a value's storage", m.Name, out)
			}
		}
	}
	v := List(Str("a"), List(Int(1)), Float(2.5))
	want := List(Str("a"), List(Int(1)), Float(2.5))
	enc := v.AppendBinary(nil)
	js, err := v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{enc, js} {
		for i := range b {
			b[i] = 0
		}
	}
	if !v.Equal(want) {
		t.Errorf("writing through an encoding changed the value: %v", v)
	}
}
