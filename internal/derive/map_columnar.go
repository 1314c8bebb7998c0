package derive

import (
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// Row-wise derivations as column kernels: derive_ratio, derive_duration and
// derive_active_frequency compute one float column per batch, and
// rename_column relabels a column without copying it.

// floatColumnKernel adds column out to every batch: cells(f) computes row
// i's value, valid or not. A row without a valid value keeps whatever cell
// it had, as the row path returns such a row unchanged (frame.Merge).
func floatColumnKernel(in *dataset.Dataset, schema semantics.Schema, name, out string,
	cells func(f *frame.Frame) func(i int) (float64, bool)) *dataset.Dataset {

	frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {
		at := cells(f)
		vals := make([]float64, f.NumRows())
		ok := make([]bool, f.NumRows())
		for i := range vals {
			vals[i], ok[i] = at(i)
		}
		return frame.Merge(f, frame.New(frame.FloatColumnWhere(out, vals, ok)))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}

// ratioCells divides num by den with value.Div's rules: both operands must
// coerce to floats and the denominator must be nonzero.
func ratioCells(num, den string) func(f *frame.Frame) func(i int) (float64, bool) {
	return func(f *frame.Frame) func(i int) (float64, bool) {
		n, d := floatCells(f.Col(num)), floatCells(f.Col(den))
		return func(i int) (float64, bool) {
			nv, nok := n(i)
			dv, dok := d(i)
			return nv / dv, nok && dok && dv != 0
		}
	}
}

// activeFrequencyCells computes aperf/mperf*base where all three operands
// are present and the MPERF rate is nonzero.
func activeFrequencyCells(aperf, mperf, base string) func(f *frame.Frame) func(i int) (float64, bool) {
	return func(f *frame.Frame) func(i int) (float64, bool) {
		a, m, b := floatCells(f.Col(aperf)), floatCells(f.Col(mperf)), floatCells(f.Col(base))
		return func(i int) (float64, bool) {
			av, aok := a(i)
			mv, mok := m(i)
			bv, bok := b(i)
			return av / mv * bv, aok && mok && bok && mv != 0
		}
	}
}

// durationCells reads a span column's lengths in seconds; a cell that is
// not a span has none.
func durationCells(col string) func(f *frame.Frame) func(i int) (float64, bool) {
	return func(f *frame.Frame) func(i int) (float64, bool) {
		c := f.Col(col)
		switch {
		case c == nil:
			return func(int) (float64, bool) { return 0, false }
		case c.Kind() == value.KindSpan:
			return func(i int) (float64, bool) { return float64(c.SpanEndAt(i)-c.IntAt(i)) / 1e9, c.Present(i) }
		default:
			return func(i int) (float64, bool) {
				v := c.Value(i)
				return float64(v.SpanDurationNanos()) / 1e9, v.Kind() == value.KindSpan
			}
		}
	}
}

// renameColumnar relabels column from to in every batch, sharing its
// storage. A batch already carrying a column named to keeps that column's
// cells where from is absent, as the row path moves only present cells.
func renameColumnar(in *dataset.Dataset, schema semantics.Schema, name, from, to string) *dataset.Dataset {
	frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {
		if f.Col(to) == nil {
			return f.Rename(from, to)
		}
		return frame.Merge(f.Drop(from), f.Select([]string{from}).Rename(from, to))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}
