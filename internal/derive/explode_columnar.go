package derive

import (
	"scrubjay/internal/frame"
	"scrubjay/internal/value"
)

// Vectorized explode kernels. Both explodes share a shape: scan the source
// column once collecting (source row, output value) pairs, gather the other
// columns by source index, and attach the output values as one new column —
// a handful of columnar copies instead of a map clone per output row.

// explodeDiscreteFrame explodes one batch's list column into one row per
// element. Rows whose list is null or empty are dropped, as on the row
// path.
func explodeDiscreteFrame(f *frame.Frame, col, out string) *frame.Frame {
	c := f.Col(col)
	var src []int32
	var vals []value.Value
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
	var src []int32
	var ts []int64
	if c != nil {
		typed := c.Kind() == value.KindSpan
		for i := 0; i < f.NumRows(); i++ {
			var start, end int64
			if typed {
				if !c.Present(i) {
					continue
				}
				start, end = c.IntAt(i), c.SpanEndAt(i)
			} else {
				v := c.Value(i)
				if v.Kind() != value.KindSpan {
					continue
				}
				start, end = v.SpanBounds()
			}
			first := (start + periodNanos - 1) / periodNanos * periodNanos
			emitted := false
			for t := first; t < end; t += periodNanos {
				src = append(src, int32(i))
				ts = append(ts, t)
				emitted = true
			}
			if !emitted {
				src = append(src, int32(i))
				ts = append(ts, start)
			}
		}
	}
	return f.Drop(col).Gather(src).With(frame.TimeColumn(out, ts))
}
