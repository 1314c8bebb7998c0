package frame

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"scrubjay/internal/value"
)

// TestRawStringColumnRejects: the decoder's arena check refuses offsets
// that do not start at 0, that decrease, that do not end at the data's
// length, or that are not one more than the rows, and an absent cell that
// holds bytes, and accepts a well-formed arena with empty and absent cells.
func TestRawStringColumnRejects(t *testing.T) {
	for _, tc := range []struct {
		what string
		n    int
		data string
		off  []uint32
		pres []uint64
		want string // error substring; "" for a valid column
	}{
		{"valid", 3, "abcd", []uint32{0, 1, 1, 4}, nil, ""},
		{"valid with an absent cell", 3, "abcd", []uint32{0, 1, 1, 4}, []uint64{0b101}, ""},
		{"absent cell holding bytes", 3, "abcd", []uint32{0, 1, 1, 4}, []uint64{0b011}, "absent string cell 2 holds 3 bytes"},
		{"valid empty", 0, "", []uint32{0}, nil, ""},
		{"first offset not 0", 2, "abcd", []uint32{1, 2, 4}, nil, "first string offset 1"},
		{"decreasing offset", 3, "abcd", []uint32{0, 3, 2, 4}, nil, "string offset 2 decreases from 3 to 2"},
		{"last offset short of the data", 2, "abcd", []uint32{0, 1, 3}, nil, "end at 3, want 4"},
		{"last offset past the data", 2, "abcd", []uint32{0, 1, 5}, nil, "end at 5, want 4"},
		{"too few offsets", 3, "abcd", []uint32{0, 1, 4}, nil, "3 string offsets for 3 rows"},
		{"too many offsets", 1, "abcd", []uint32{0, 1, 4}, nil, "3 string offsets for 1 rows"},
		{"no offsets", 0, "", nil, nil, "0 string offsets for 0 rows"},
	} {
		c, err := RawStringColumn("k", tc.n, tc.data, tc.off, tc.pres)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.what, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.what, err, tc.want)
		case tc.want == "" && tc.n == 3 && (c.StrAt(0) != "a" || c.StrAt(1) != "" || c.StrAt(2) != "bcd"):
			t.Errorf("%s: cells %q %q %q", tc.what, c.StrAt(0), c.StrAt(1), c.StrAt(2))
		}
	}
}

// TestArenaBound: a plain string column's offsets are uint32, so an arena
// of more than 4 GiB panics, naming the column, before anything is
// allocated, rather than wrapping an offset.
func TestArenaBound(t *testing.T) {
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"huge"`) {
			t.Fatalf("growArena past 4 GiB: recovered %q, want a panic naming the column", msg)
		}
	}()
	var sb strings.Builder
	growArena(&sb, "huge", math.MaxUint32+1)
}

// uniqueColumn builds an n-row plain string column of distinct 12-byte
// keys, every seventh cell absent.
func uniqueColumn(n int) Column {
	cells, present := make([]string, n), make([]bool, n)
	for i := range cells {
		cells[i] = fmt.Sprintf("node%08d", i)
		present[i] = i%7 != 0
	}
	return StrColumnOf("id", cells, present, nil)
}

// TestStringGatherAllocsFlat: Gather and ConcatGather of a plain string
// column size its arena and offsets by counting first, so they cost the
// same number of allocations at 1k and at 16k rows.
func TestStringGatherAllocsFlat(t *testing.T) {
	count := func(n int) (gather, concat float64) {
		f := New(uniqueColumn(n))
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32((i * 7919) % n)
		}
		gather = testing.AllocsPerRun(20, func() { f.Gather(idx) })
		frames, sels := []*Frame{f, f}, [][]int32{idx, nil}
		concat = testing.AllocsPerRun(20, func() { ConcatGather(frames, sels, nil) })
		return gather, concat
	}
	g1, c1 := count(1 << 10)
	g16, c16 := count(1 << 14)
	if g1 != g16 {
		t.Errorf("Gather: %.0f allocations at 1k rows, %.0f at 16k; want the same", g1, g16)
	}
	if c1 != c16 {
		t.Errorf("ConcatGather: %.0f allocations at 1k rows, %.0f at 16k; want the same", c1, c16)
	}
}

// TestDictDoesNotPinArena: a dictionary built from cells of a plain
// string column — by Builder.Finish, by Merge's coalescing builder, or by
// a Pivot over rows unboxed from the column — copies its entries, so no
// entry keeps the column's arena alive.
func TestDictDoesNotPinArena(t *testing.T) {
	const n = 64
	cells, present := make([]string, n), make([]bool, n)
	for i := range cells {
		cells[i] = fmt.Sprintf("rack-%02d", i%4)
		present[i] = true
	}
	src := StrColumnOf("k", cells, present, nil)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src.sdat)))
	hi := lo + uintptr(len(src.sdat))
	check := func(what string, c *Column) {
		t.Helper()
		if c == nil || !c.DictEncoded() {
			t.Fatalf("%s: column not dictionary-encoded", what)
		}
		for k, e := range c.dict.vals {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(e))); p >= lo && p < hi {
				t.Fatalf("%s: dictionary entry %d (%q) points into the source arena", what, k, e)
			}
		}
	}

	b := NewBuilder("k", n)
	for i := 0; i < n; i++ {
		b.Set(i, src.Value(i))
	}
	built := b.Finish()
	check("Builder.Finish", &built)

	half := NewBuilder("k", n)
	for i := 0; i < n; i += 2 {
		half.Set(i, value.Str("other"))
	}
	merged := Merge(New(src), New(half.Finish()))
	check("Merge", merged.Col("k"))

	rows := New(src).ToRows()
	p := NewPivot(rows)
	check("Pivot", p.FromRows(rows).Col("k"))
}
