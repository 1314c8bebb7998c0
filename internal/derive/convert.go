package derive

import (
	"fmt"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/units"
	"scrubjay/internal/value"
)

// ConvertUnits changes the units of a numeric column (§4.2: "seconds may be
// readily converted to minutes"). The dimension is unchanged; the value is
// rescaled through the unit dictionary.
type ConvertUnits struct {
	// Column is the column to convert.
	Column string
	// To is the target unit expression.
	To string
}

func init() {
	RegisterTransformation("convert_units", func(p map[string]any) (Transformation, error) {
		col, err := paramString(p, "column")
		if err != nil {
			return nil, err
		}
		to, err := paramString(p, "to")
		if err != nil {
			return nil, err
		}
		return &ConvertUnits{Column: col, To: to}, nil
	})
}

// Name implements Transformation.
func (c *ConvertUnits) Name() string { return "convert_units" }

// Params implements Transformation.
func (c *ConvertUnits) Params() map[string]any {
	return map[string]any{"column": c.Column, "to": c.To}
}

// DeriveSchema implements Transformation.
func (c *ConvertUnits) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	e, ok := in[c.Column]
	if !ok {
		return nil, fmt.Errorf("convert_units: no column %q", c.Column)
	}
	if e.Units == "datetime" || e.Units == "timespan" {
		return nil, fmt.Errorf("convert_units: column %q holds structural time values", c.Column)
	}
	if !dict.Units.Convertible(e.Units, c.To) {
		return nil, fmt.Errorf("convert_units: cannot convert %q from %q to %q", c.Column, e.Units, c.To)
	}
	out := in.Clone()
	e.Units = c.To
	out[c.Column] = e
	return out, nil
}

// Apply implements Transformation. Non-numeric and null cells pass through
// unchanged (identifier-unit columns have nothing to rescale).
func (c *ConvertUnits) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := c.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	from := in.Schema()[c.Column].Units
	col, to := c.Column, c.To
	u := dict.Units
	name := fmt.Sprintf("%s|convert(%s->%s)", in.Name(), col, to)
	if in.IsColumnar() {
		frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {
			return convertFrame(f, u, col, from, to)
		})
		return dataset.NewFrames(name, frames.WithName(name), schema), nil
	}
	rows := rdd.Map(in.Rows(), func(r value.Row) value.Row {
		v := r.Get(col)
		f, ok := v.AsFloat()
		if !ok || v.Kind() == value.KindTime {
			return r
		}
		conv, err := u.Convert(f, from, to)
		if err != nil {
			return r
		}
		return r.With(col, value.Float(conv))
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}

// convertFrame rescales one batch's column. Float-typed columns convert as
// one dense vector (frame.ConvertColumn); any other storage falls back to
// the row path's per-cell rules — non-numeric, time, and unconvertible
// cells pass through unchanged.
func convertFrame(f *frame.Frame, u *units.Dict, col, from, to string) *frame.Frame {
	c := f.Col(col)
	if c == nil {
		return f
	}
	if cc, ok := frame.ConvertColumn(u, c, from, to); ok {
		return f.With(cc)
	}
	conv, err := u.Converter(from, to)
	b := frame.NewBuilder(c.Name(), f.NumRows())
	for i := 0; i < f.NumRows(); i++ {
		if !c.Present(i) {
			continue
		}
		v := c.Value(i)
		if fv, ok := v.AsFloat(); ok && v.Kind() != value.KindTime && err == nil {
			v = value.Float(conv(fv))
		}
		b.Set(i, v)
	}
	return f.With(b.Finish())
}

// DeriveRatio computes a new value column as the quotient of two existing
// value columns — the paper's example of "dividing instruction counts by
// elapsed times to obtain instruction rates" (§4.3).
type DeriveRatio struct {
	// Numerator and Denominator are value columns.
	Numerator   string
	Denominator string
	// As names the output column.
	As string
}

func init() {
	RegisterTransformation("derive_ratio", func(p map[string]any) (Transformation, error) {
		num, err := paramString(p, "numerator")
		if err != nil {
			return nil, err
		}
		den, err := paramString(p, "denominator")
		if err != nil {
			return nil, err
		}
		as, err := paramString(p, "as")
		if err != nil {
			return nil, err
		}
		return &DeriveRatio{Numerator: num, Denominator: den, As: as}, nil
	})
}

// Name implements Transformation.
func (d *DeriveRatio) Name() string { return "derive_ratio" }

// Params implements Transformation.
func (d *DeriveRatio) Params() map[string]any {
	return map[string]any{"numerator": d.Numerator, "denominator": d.Denominator, "as": d.As}
}

// DeriveSchema implements Transformation: the output is a value column on
// the composite dimension num/den with composite units.
func (d *DeriveRatio) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	num, ok := in[d.Numerator]
	if !ok || num.Relation != semantics.Value {
		return nil, fmt.Errorf("derive_ratio: %q is not a value column", d.Numerator)
	}
	den, ok := in[d.Denominator]
	if !ok || den.Relation != semantics.Value {
		return nil, fmt.Errorf("derive_ratio: %q is not a value column", d.Denominator)
	}
	if _, exists := in[d.As]; exists {
		return nil, fmt.Errorf("derive_ratio: output column %q already exists", d.As)
	}
	if d.As == "" {
		return nil, fmt.Errorf("derive_ratio: output column name required")
	}
	out := in.Clone()
	out[d.As] = semantics.Entry{
		Relation:  semantics.Value,
		Dimension: num.Dimension + "/" + den.Dimension,
		Units:     num.Units + "/" + den.Units,
	}
	return out, nil
}

// Apply implements Transformation. Rows where either operand is missing or
// the denominator is zero get a null ratio.
func (d *DeriveRatio) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := d.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	num, den, as := d.Numerator, d.Denominator, d.As
	name := fmt.Sprintf("%s|ratio(%s/%s)", in.Name(), num, den)
	if in.IsColumnar() {
		return floatColumnKernel(in, schema, name, as, ratioCells(num, den)), nil
	}
	rows := rdd.Map(in.Rows(), func(r value.Row) value.Row {
		q, err := value.Div(r.Get(num), r.Get(den))
		if err != nil {
			return r
		}
		return r.With(as, q)
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
