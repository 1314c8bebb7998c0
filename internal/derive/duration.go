package derive

import (
	"fmt"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// DeriveDuration computes an elapsed-time value column from a timespan
// domain column — the paper's observation that "the elapsed time of an
// application execution also constitutes a measurement, and therefore a
// value" (§4.2): the span is a domain, its length is a value.
type DeriveDuration struct {
	// Column is the timespan domain column; "" autodetects a single one.
	Column string
	// As names the output column; defaults to Column+"_duration".
	As string
}

func init() {
	RegisterTransformation("derive_duration", func(p map[string]any) (Transformation, error) {
		col, err := paramStringDefault(p, "column", "")
		if err != nil {
			return nil, err
		}
		as, err := paramStringDefault(p, "as", "")
		if err != nil {
			return nil, err
		}
		return &DeriveDuration{Column: col, As: as}, nil
	})
	registerCandidateGenerator(func(s semantics.Schema, dict *semantics.Dictionary, _ CandidateOptions) []Transformation {
		// Useful only when the dataset has a span but no duration value
		// yet; otherwise it adds noise to the closure.
		if s.HasValueDimension("time_duration") {
			return nil
		}
		d := &DeriveDuration{}
		if _, err := d.resolve(s); err == nil {
			return []Transformation{d}
		}
		return nil
	})
}

// Name implements Transformation.
func (d *DeriveDuration) Name() string { return "derive_duration" }

// Params implements Transformation.
func (d *DeriveDuration) Params() map[string]any {
	p := map[string]any{}
	if d.Column != "" {
		p["column"] = d.Column
	}
	if d.As != "" {
		p["as"] = d.As
	}
	return p
}

func (d *DeriveDuration) resolve(in semantics.Schema) (string, error) {
	if d.Column != "" {
		e, ok := in[d.Column]
		if !ok || e.Relation != semantics.Domain || e.Units != "timespan" {
			return "", fmt.Errorf("derive_duration: column %q is not a timespan domain", d.Column)
		}
		return d.Column, nil
	}
	var spans []string
	for _, c := range in.DomainColumns() {
		if in[c].Units == "timespan" {
			spans = append(spans, c)
		}
	}
	if len(spans) != 1 {
		return "", fmt.Errorf("derive_duration: need exactly one timespan domain column, found %d", len(spans))
	}
	return spans[0], nil
}

func (d *DeriveDuration) out(col string) string {
	if d.As != "" {
		return d.As
	}
	return col + "_duration"
}

// DeriveSchema implements Transformation: adds a time_duration value in
// seconds; the span column remains (it is still the domain).
func (d *DeriveDuration) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	col, err := d.resolve(in)
	if err != nil {
		return nil, err
	}
	outCol := d.out(col)
	if _, exists := in[outCol]; exists {
		return nil, fmt.Errorf("derive_duration: output column %q already exists", outCol)
	}
	out := in.Clone()
	out[outCol] = semantics.ValueEntry("time_duration", "seconds")
	return out, nil
}

// Apply implements Transformation. Rows without a span get no duration.
func (d *DeriveDuration) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := d.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	col, err := d.resolve(in.Schema())
	if err != nil {
		return nil, err
	}
	outCol := d.out(col)
	name := in.Name() + "|derive_duration"
	if in.IsColumnar() {
		return floatColumnKernel(in, schema, name, outCol, durationCells(col)), nil
	}
	rows := rdd.Map(in.Rows(), func(r value.Row) value.Row {
		v := r.Get(col)
		if v.Kind() != value.KindSpan {
			return r
		}
		return r.With(outCol, value.Float(float64(v.SpanDurationNanos())/1e9))
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
