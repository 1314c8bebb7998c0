package derive

import (
	"strings"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// Vectorized filter and projection. Projection is a zero-copy column
// subset. The filter compiles the (column kind, operand kind) pair into a
// typed comparison loop over the column vector where the semantics of
// value.Value.Compare can be reproduced exactly; every other case falls
// back to the row path's own predicate evaluated per cell
// (frame.MaskValues), so the two paths cannot disagree.

// filterColumnar applies a compiled filter to a columnar dataset.
func filterColumnar(in *dataset.Dataset, schema semantics.Schema, name string,
	col, op string, operand value.Value, pred func(value.Value) bool) *dataset.Dataset {

	frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {
		keep := filterMask(f, col, op, operand, pred)
		return f.FilterMask(keep)
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}

// filterMask computes the keep mask for one batch. Null and absent cells
// never match, as on the row path.
func filterMask(f *frame.Frame, col, op string, operand value.Value, pred func(value.Value) bool) []bool {
	c := f.Col(col)
	if c != nil && c.Kind() != value.KindNull {
		if keep, ok := typedFilterMask(c, op, operand); ok {
			return keep
		}
	}
	return frame.MaskValues(f, col, func(v value.Value) bool {
		return !v.IsNull() && pred(v)
	})
}

// typedFilterMask evaluates a comparison op over a typed column vector,
// reproducing Value.Compare exactly: numeric kinds (bool/int/float)
// compare by float64 magnitude across kinds, strings lexically, times
// chronologically, and mismatched kinds by constant kind-tag difference.
// The second result is false when the case is not covered (caller falls
// back to the boxed predicate).
func typedFilterMask(c *frame.Column, op string, operand value.Value) ([]bool, bool) {
	n := c.Len()
	keep := make([]bool, n)
	if op == "contains" {
		if c.Kind() != value.KindString {
			return nil, false
		}
		needle := operand.String()
		for i := 0; i < n; i++ {
			keep[i] = c.Present(i) && strings.Contains(c.StrAt(i), needle)
		}
		return keep, true
	}
	match, ok := cmpMatcher(op)
	if !ok {
		return nil, false
	}
	ck, okind := c.Kind(), operand.Kind()
	opF, opNumeric := operand.AsFloat()
	switch {
	case (ck == value.KindBool || ck == value.KindInt || ck == value.KindFloat) &&
		opNumeric && okind != value.KindTime:
		switch ck {
		case value.KindFloat:
			for i := 0; i < n; i++ {
				keep[i] = c.Present(i) && match(cmpFloat(c.FloatAt(i), opF))
			}
		default: // bool (0/1) and int share the ints vector
			for i := 0; i < n; i++ {
				keep[i] = c.Present(i) && match(cmpFloat(float64(c.IntAt(i)), opF))
			}
		}
	case ck == value.KindString && okind == value.KindString:
		needle := operand.StrVal()
		for i := 0; i < n; i++ {
			keep[i] = c.Present(i) && match(strings.Compare(c.StrAt(i), needle))
		}
	case ck == value.KindTime && okind == value.KindTime:
		opT := operand.TimeNanosVal()
		for i := 0; i < n; i++ {
			keep[i] = c.Present(i) && match(cmpInt64(c.IntAt(i), opT))
		}
	case ck == value.KindSpan && okind == value.KindSpan:
		opS, opE := operand.SpanBounds()
		for i := 0; i < n; i++ {
			cmp := cmpInt64(c.IntAt(i), opS)
			if cmp == 0 {
				cmp = cmpInt64(c.SpanEndAt(i), opE)
			}
			keep[i] = c.Present(i) && match(cmp)
		}
	default:
		// Mixed kinds order by kind tag — one constant answer per batch.
		hit := match(int(ck) - int(okind))
		for i := 0; i < n; i++ {
			keep[i] = c.Present(i) && hit
		}
	}
	return keep, true
}

func cmpMatcher(op string) (func(int) bool, bool) {
	switch op {
	case "==":
		return func(c int) bool { return c == 0 }, true
	case "!=":
		return func(c int) bool { return c != 0 }, true
	case "<":
		return func(c int) bool { return c < 0 }, true
	case "<=":
		return func(c int) bool { return c <= 0 }, true
	case ">":
		return func(c int) bool { return c > 0 }, true
	case ">=":
		return func(c int) bool { return c >= 0 }, true
	default:
		return nil, false
	}
}

// cmpFloat mirrors Value.Compare's numeric branch, including its NaN
// behavior (all comparisons false reads as equal).
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
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
