package derive

import (
	"scrubjay/internal/frame"
	"scrubjay/internal/value"
)

// Vectorized explode kernels. Both explodes share a shape: count the output
// rows, fill exact-size vectors of (source row, output value) pairs in one
// scan of the source column, gather the other columns by source index, and
// attach the output values as one new column — a handful of columnar
// copies instead of a map clone per output row.

// explodeDiscreteFrame explodes one batch's list column into one row per
// element. Rows whose list is null or empty are dropped, as on the row
// path.
func explodeDiscreteFrame(f *frame.Frame, col, out string) *frame.Frame {
	c := f.Col(col)
	n := 0
	if c != nil {
		for i := 0; i < f.NumRows(); i++ {
			n += c.Value(i).ListLen()
		}
	}
	src, vals := make([]int32, 0, n), make([]value.Value, 0, n)
	if c != nil {
		for i := 0; i < f.NumRows(); i++ {
			list := c.Value(i)
			for k := 0; k < list.ListLen(); k++ {
				src = append(src, int32(i))
				vals = append(vals, list.ListAt(k))
			}
		}
	}
	return f.Drop(col).Gather(src).With(frame.ColumnOf(out, vals))
}

// explodeContinuousFrame explodes one batch's timespan column into one row
// per grid-aligned instant. Non-span cells drop the row; a span shorter
// than one period still yields its start instant.
func explodeContinuousFrame(f *frame.Frame, col, out string, periodNanos int64) *frame.Frame {
	c := f.Col(col)
	n := 0
	if c != nil {
		for i := 0; i < f.NumRows(); i++ {
			if start, end, ok := spanAt(c, i); ok {
				_, m := gridInstants(start, end, periodNanos)
				n += m
			}
		}
	}
	src, ts := make([]int32, n), make([]int64, n)
	if c != nil {
		k := 0
		for i := 0; i < f.NumRows(); i++ {
			start, end, ok := spanAt(c, i)
			if !ok {
				continue
			}
			first, m := gridInstants(start, end, periodNanos)
			for j := 0; j < m; j++ {
				src[k], ts[k] = int32(i), first+int64(j)*periodNanos
				k++
			}
		}
	}
	return f.Drop(col).Gather(src).With(frame.TimeColumn(out, ts))
}

// spanAt reads cell i of a timespan column; ok is false when the cell is
// absent or its value not a span.
func spanAt(c *frame.Column, i int) (start, end int64, ok bool) {
	if c.Kind() == value.KindSpan {
		return c.IntAt(i), c.SpanEndAt(i), c.Present(i)
	}
	v := c.Value(i)
	start, end = v.SpanBounds()
	return start, end, v.Kind() == value.KindSpan
}

// gridInstants returns the instants explode_continuous emits for the span
// [start, end) as first, first+period, … (m of them). They are the grid
// instants the row path's loop visits — from gridCeil(start), while before
// end — or, when it visits none, the start instant alone.
func gridInstants(start, end, period int64) (first int64, m int) {
	first = gridCeil(start, period)
	if first >= end {
		return start, 1
	}
	return first, int((end-first-1)/period) + 1
}

// gridCeil is the smallest multiple of period (positive) at or after t. It
// rounds through floorDiv, so a negative t off the grid rounds up too, and
// never forms t+period, which could overflow.
func gridCeil(t, period int64) int64 {
	q := floorDiv(t, period)
	if q*period < t {
		q++
	}
	return q * period
}
