package frame

import (
	"scrubjay/internal/units"
	"scrubjay/internal/value"
)

// Convert rescales a float payload vector from unit from to unit to,
// returning a new vector (the input is never modified — frames are
// immutable). It is the vectorized core of the convert_units kernel: one
// factor lookup per column (units.Dict.Converter) instead of one per row.
func Convert(d *units.Dict, vals []float64, from, to string) ([]float64, error) {
	conv, err := d.Converter(from, to)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = conv(v)
	}
	return out, nil
}

// ConvertColumn applies Convert to a float-kinded column, preserving name
// and presence. The second result is false when the column is not
// float-typed (callers fall back to the row path) or conversion fails.
func ConvertColumn(d *units.Dict, c *Column, from, to string) (Column, bool) {
	if c.kind != value.KindFloat {
		return Column{}, false
	}
	vals, err := Convert(d, c.flts, from, to)
	if err != nil {
		return Column{}, false
	}
	return c.withFloats(vals), true
}
