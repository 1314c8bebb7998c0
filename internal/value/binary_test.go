package value

import (
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

func TestBinaryValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), Bool(true), Bool(false), Int(-5), Int(1 << 40), Float(1.5),
		Str(""), Str("rack17"),
		Time(time.Date(2017, 11, 12, 0, 0, 0, 123, time.UTC)),
		Span(-100, 200),
		List(), List(Int(1), Str("a"), List(Bool(true))),
	}
	for _, v := range vals {
		data := v.AppendBinary(nil)
		got, n, err := DecodeValue(data)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(data) {
			t.Errorf("%v: consumed %d of %d bytes", v, n, len(data))
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestBinaryRowRoundTrip(t *testing.T) {
	r := NewRow(
		"node", Str("cab17"),
		"t", TimeNanos(1490000000e9),
		"span", Span(0, 1e9),
		"vals", List(Int(1), Int(2)),
		"temp", Float(67.4),
		"nothing", Null(),
	)
	data := r.AppendBinary(nil)
	got, n, err := DecodeRow(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Errorf("consumed %d of %d", n, len(data))
	}
	if !got.Equal(r) {
		t.Errorf("round trip %v -> %v", r, got)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},                      // empty
		{99},                    // unknown kind
		{byte(KindInt)},         // missing varint
		{byte(KindFloat), 1, 2}, // truncated float
		{byte(KindString), 10},  // truncated string
		{byte(KindSpan), 2},     // truncated span
		{byte(KindList), 200},   // implausible list length varint(100)
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); err == nil {
			t.Errorf("DecodeValue(%v) should fail", b)
		}
	}
	if _, _, err := DecodeRow(nil); err == nil {
		t.Error("DecodeRow(nil) should fail")
	}
	if _, _, err := DecodeRow([]byte{1, 5}); err == nil {
		t.Error("truncated row name should fail")
	}
	if _, _, err := DecodeRow([]byte{1, 1, 'a', 99}); err == nil {
		t.Error("bad row value should fail")
	}
}

// TestDecodeNestedListsLinear: a corrupt input of nested list headers,
// each claiming as many elements as bytes remain, must cost decode memory
// linear in its length. Preallocating every level's slice up front cost
// about 4·len² bytes (64 MB for these 4 KB).
func TestDecodeNestedListsLinear(t *testing.T) {
	const size = 4096
	var b []byte
	for len(b)+4 <= size {
		l := size - len(b) - 4 // the bytes after this 4-byte header
		b = append(b, byte(KindList), byte(l)|0x80, byte(l>>7)|0x80, byte(l>>14))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := DecodeValue(b); err == nil {
		t.Fatal("truncated nested lists decoded")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("decoding %d bytes of list headers allocated %d bytes, want at most 1 MiB", len(b), got)
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	prop := func(g genValue) bool {
		data := g.V.AppendBinary(nil)
		got, n, err := DecodeValue(data)
		return err == nil && n == len(data) && got.Equal(g.V)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickBinaryRowRoundTrip(t *testing.T) {
	prop := func(a, b genValue, n1, n2 string) bool {
		if n1 == "" {
			n1 = "x"
		}
		if n2 == "" || n2 == n1 {
			n2 = n1 + "y"
		}
		r := Row{n1: a.V, n2: b.V}
		data := r.AppendBinary(nil)
		got, n, err := DecodeRow(data)
		return err == nil && n == len(data) && got.Equal(r)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzValueBinary decodes arbitrary bytes. Whatever decodes must survive a
// re-encode and decode unchanged (Equal, Compare 0, same Hash), and, where
// JSON can carry the payload, a MarshalJSON/UnmarshalJSON round trip.
func FuzzValueBinary(f *testing.F) {
	long := strings.Repeat("rack17-node", 300)
	seeds := []Value{
		Str(""), Str(long), Str(long[7:29]),
		List(List(), List(Int(1), List(Str("a"), Null())), StrList("x", long[3:9])),
		Span(200, -100), Span(-1<<62, 1<<62), Float(math.NaN()), Float(math.Inf(-1)),
		TimeNanos(-1), Bool(true), Null(),
	}
	for _, v := range seeds {
		f.Add(v.AppendBinary(nil))
	}
	// A span encoded end first: the decoder swaps the bounds.
	f.Add(binary.AppendVarint(binary.AppendVarint([]byte{byte(KindSpan)}, 200), -100))
	f.Add([]byte{})
	// A bool whose payload is neither 0 nor 1 decodes as true.
	f.Add([]byte{byte(KindBool), 4})
	// A string length past the int range is truncated input, not a panic.
	f.Add(binary.AppendUvarint([]byte{byte(KindString)}, 1<<63+9))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, _, err := DecodeValue(data)
		if err != nil {
			return
		}
		enc := v.AppendBinary(nil)
		w, n, err := DecodeValue(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("re-decode of %v: consumed %d of %d, err %v", v, n, len(enc), err)
		}
		if !w.Equal(v) || w.Compare(v) != 0 || w.Hash() != v.Hash() {
			t.Fatalf("binary round trip %v -> %v", v, w)
		}
		if !jsonCarries(v, 16) {
			return
		}
		js, err := v.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON %v: %v", v, err)
		}
		var u Value
		if err := u.UnmarshalJSON(js); err != nil {
			t.Fatalf("UnmarshalJSON %s: %v", js, err)
		}
		if !u.Equal(v) {
			t.Fatalf("JSON round trip %v -> %s -> %v", v, js, u)
		}
	})
}

// jsonCarries reports whether JSON keeps v exactly and cheaply: it
// replaces invalid UTF-8 in strings and has a single spelling for NaN, and
// each list level re-scans its nested elements, so deep nesting is left to
// the binary half.
func jsonCarries(v Value, depth int) bool {
	switch v.Kind() {
	case KindString:
		return utf8.ValidString(v.StrVal())
	case KindFloat:
		return !math.IsNaN(v.FloatVal())
	case KindList:
		if depth == 0 {
			return false
		}
		for i := 0; i < v.ListLen(); i++ {
			if !jsonCarries(v.ListAt(i), depth-1) {
				return false
			}
		}
	}
	return true
}
