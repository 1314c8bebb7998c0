package frame

import (
	"fmt"

	"scrubjay/internal/value"
)

// Raw column construction for the shuffle wire codec (internal/shuffle),
// which rebuilds columns from decoded vectors without a per-cell boxing
// round trip. The codec reads columns through the scalar accessors
// (IntAt, FloatAt, StrAt, SpanEndAt, Value and PresenceWord) and string
// columns through DictCodes; nothing here hands storage out. Plain string
// columns are rebuilt by RawStringColumn, dictionary columns by
// RawDictColumn (dict.go).

// PresenceWord returns word w of the column's presence bitmap: cells
// 64w..64w+63, least significant bit first. Only a column with an absent
// cell (not AllPresent) has a bitmap.
func (c *Column) PresenceWord(w int) uint64 { return c.pres[w] }

// RawFrame builds a frame from decoded columns with an explicit row count.
// Unlike New it can express a frame that has rows but no columns (FromRows
// over rows whose maps are empty produces one), which the wire codec must
// round-trip exactly. It is an ownership-transfer constructor: the cols
// slice is retained, not copied, so the caller must not touch it again.
// Column names must be distinct; a decoded payload naming one twice is
// corrupt.
func RawFrame(n int, cols []Column) (*Frame, error) {
	if n < 0 {
		return nil, fmt.Errorf("frame: raw frame: negative row count %d", n)
	}
	for i := range cols {
		if cols[i].n != n {
			return nil, fmt.Errorf("frame: raw frame: column %q has %d rows, want %d", cols[i].name, cols[i].n, n)
		}
	}
	f := newFrame(cols, n)
	for i := 1; i < len(f.cols); i++ {
		if f.cols[i].name == f.cols[i-1].name {
			return nil, fmt.Errorf("frame: raw frame: duplicate column %q", f.cols[i].name)
		}
	}
	return f, nil
}

// RawColumn rebuilds a column from raw storage vectors, the inverse of the
// scalar accessors. It validates that exactly the vectors the kind requires
// are present with the right lengths, so a corrupt or truncated wire
// payload surfaces as an error rather than an out-of-range panic later.
// It is an ownership-transfer constructor: the slices are retained, not
// copied, and the caller must not write them afterwards.
func RawColumn(name string, kind value.Kind, n int, ints []int64, flts []float64, ends []int64, boxd []value.Value, pres []uint64) (Column, error) {
	if n < 0 {
		return Column{}, fmt.Errorf("frame: raw column %q: negative length %d", name, n)
	}
	if pres != nil && len(pres) != (n+63)/64 {
		return Column{}, fmt.Errorf("frame: raw column %q: presence bitmap has %d words, want %d", name, len(pres), (n+63)/64)
	}
	want := func(cond bool, what string) error {
		if !cond {
			return fmt.Errorf("frame: raw column %q (kind %v): bad %s vector", name, kind, what)
		}
		return nil
	}
	c := Column{name: name, kind: kind, n: n, pres: pres}
	switch kind {
	case value.KindNull:
		if err := want(len(boxd) == n && ints == nil && flts == nil && ends == nil, "boxed"); err != nil {
			return Column{}, err
		}
		c.boxd = boxd
	case value.KindBool, value.KindInt, value.KindTime:
		if err := want(len(ints) == n && flts == nil && ends == nil && boxd == nil, "int"); err != nil {
			return Column{}, err
		}
		// A bool is stored as 0 or 1 and kernels compare the storage, so
		// any other number would make two true cells unequal.
		for i, v := range ints {
			if kind != value.KindBool {
				break
			}
			if v != 0 && v != 1 {
				return Column{}, fmt.Errorf("frame: raw column %q: bool cell %d stored as %d", name, i, v)
			}
		}
		c.ints = ints
	case value.KindFloat:
		if err := want(len(flts) == n && ints == nil && ends == nil && boxd == nil, "float"); err != nil {
			return Column{}, err
		}
		c.flts = flts
	case value.KindString:
		return Column{}, fmt.Errorf("frame: raw column %q: a string column is built by RawStringColumn or RawDictColumn", name)
	case value.KindSpan:
		if err := want(len(ints) == n && len(ends) == n && flts == nil && boxd == nil, "span"); err != nil {
			return Column{}, err
		}
		// value.Span orders its bounds and kernels compare the storage, so
		// reversed bounds would make a span unequal to itself.
		for i := range ints {
			if ends[i] < ints[i] {
				return Column{}, fmt.Errorf("frame: raw column %q: span cell %d ends at %d before its start %d", name, i, ends[i], ints[i])
			}
		}
		c.ints, c.ends = ints, ends
	default:
		return Column{}, fmt.Errorf("frame: raw column %q: unknown kind %d", name, kind)
	}
	return c, nil
}

// RawStringColumn rebuilds a plain string column from its arena: data
// holds every cell's bytes back to back and off its n+1 offsets, so cell i
// is data[off[i]:off[i+1]]. The offsets must start at 0, never decrease
// and end at len(data), so a corrupt payload surfaces as an error here
// rather than as a slice panic on first read, and an absent cell must be
// empty, as every plain column stores it: kernels copy a plain cell by its
// offsets without reading its presence. It is an ownership-transfer
// constructor: off is retained, not copied.
func RawStringColumn(name string, n int, data string, off []uint32, pres []uint64) (Column, error) {
	if n < 0 || len(off) != n+1 {
		return Column{}, fmt.Errorf("frame: raw column %q: %d string offsets for %d rows", name, len(off), n)
	}
	if pres != nil && len(pres) != (n+63)/64 {
		return Column{}, fmt.Errorf("frame: raw column %q: presence bitmap has %d words, want %d", name, len(pres), (n+63)/64)
	}
	if off[0] != 0 {
		return Column{}, fmt.Errorf("frame: raw column %q: first string offset %d, want 0", name, off[0])
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return Column{}, fmt.Errorf("frame: raw column %q: string offset %d decreases from %d to %d", name, i, off[i-1], off[i])
		}
		if off[i] != off[i-1] && pres != nil && pres[(i-1)>>6]&(1<<(uint(i-1)&63)) == 0 {
			return Column{}, fmt.Errorf("frame: raw column %q: absent string cell %d holds %d bytes", name, i-1, off[i]-off[i-1])
		}
	}
	if int(off[n]) != len(data) {
		return Column{}, fmt.Errorf("frame: raw column %q: string offsets end at %d, want %d", name, off[n], len(data))
	}
	return Column{name: name, kind: value.KindString, sdat: data, soff: off, pres: pres, n: n}, nil
}
