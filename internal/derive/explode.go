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

// ExplodeDiscrete denormalizes a domain column holding a list into one row
// per element (§7.1 "explode discrete"): a job-queue row with
// nodelist=[n1,n2] becomes two rows, one per node. The exploded column makes
// the dataset joinable with datasets keyed on single identifiers.
type ExplodeDiscrete struct {
	// Column is the list-valued domain column to explode.
	Column string
	// As names the output column; defaults to Column+"_exploded",
	// following the paper's Figure 5.
	As string
}

func init() {
	RegisterTransformation("explode_discrete", func(p map[string]any) (Transformation, error) {
		col, err := paramString(p, "column")
		if err != nil {
			return nil, err
		}
		as, err := paramStringDefault(p, "as", "")
		if err != nil {
			return nil, err
		}
		return &ExplodeDiscrete{Column: col, As: as}, nil
	})
	registerCandidateGenerator(func(s semantics.Schema, dict *semantics.Dictionary, _ CandidateOptions) []Transformation {
		var out []Transformation
		for _, col := range s.DomainColumns() {
			if _, ok := units.IsList(s[col].Units); ok {
				out = append(out, &ExplodeDiscrete{Column: col})
			}
		}
		return out
	})
}

// Name implements Transformation.
func (e *ExplodeDiscrete) Name() string { return "explode_discrete" }

// Params implements Transformation.
func (e *ExplodeDiscrete) Params() map[string]any {
	p := map[string]any{"column": e.Column}
	if e.As != "" {
		p["as"] = e.As
	}
	return p
}

func (e *ExplodeDiscrete) out() string {
	if e.As != "" {
		return e.As
	}
	return e.Column + "_exploded"
}

// DeriveSchema implements Transformation: the list column is replaced by a
// scalar column with the list's element units.
func (e *ExplodeDiscrete) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	entry, ok := in[e.Column]
	if !ok {
		return nil, fmt.Errorf("explode_discrete: no column %q", e.Column)
	}
	if entry.Relation != semantics.Domain {
		return nil, fmt.Errorf("explode_discrete: column %q is not a domain", e.Column)
	}
	elem, isList := units.IsList(entry.Units)
	if !isList {
		return nil, fmt.Errorf("explode_discrete: column %q units %q are not a list", e.Column, entry.Units)
	}
	if _, exists := in[e.out()]; exists {
		return nil, fmt.Errorf("explode_discrete: output column %q already exists", e.out())
	}
	out := in.Clone()
	delete(out, e.Column)
	out[e.out()] = semantics.Entry{Relation: semantics.Domain, Dimension: entry.Dimension, Units: elem}
	return out, nil
}

// Apply implements Transformation. Rows whose list column is null or empty
// are dropped: a measurement with no domain elements cannot be attributed.
func (e *ExplodeDiscrete) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := e.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	col, out := e.Column, e.out()
	name := in.Name() + "|explode_discrete(" + col + ")"
	if in.IsColumnar() {
		frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {
			return explodeDiscreteFrame(f, col, out)
		})
		return dataset.NewFrames(name, frames.WithName(name), schema), nil
	}
	rows := rdd.FlatMap(in.Rows(), func(r value.Row) []value.Row {
		list := r.Get(col)
		if list.ListLen() == 0 {
			return nil
		}
		res := make([]value.Row, list.ListLen())
		for i := range res {
			nr := r.Without(col)
			nr[out] = list.ListAt(i)
			res[i] = nr
		}
		return res
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}

// ExplodeContinuous denormalizes a timespan domain column into one row per
// discrete instant within the span (§7.1 "explode continuous"), at a fixed
// period aligned to the period grid so instants from different rows
// coincide exactly.
type ExplodeContinuous struct {
	// Column is the timespan domain column to explode.
	Column string
	// As names the output column; defaults to Column+"_exploded".
	As string
	// PeriodSeconds is the sampling period.
	PeriodSeconds float64
}

func init() {
	RegisterTransformation("explode_continuous", func(p map[string]any) (Transformation, error) {
		col, err := paramString(p, "column")
		if err != nil {
			return nil, err
		}
		as, err := paramStringDefault(p, "as", "")
		if err != nil {
			return nil, err
		}
		period, err := paramFloat(p, "period_seconds")
		if err != nil {
			return nil, err
		}
		return &ExplodeContinuous{Column: col, As: as, PeriodSeconds: period}, nil
	})
	registerCandidateGenerator(func(s semantics.Schema, dict *semantics.Dictionary, opts CandidateOptions) []Transformation {
		var out []Transformation
		for _, col := range s.DomainColumns() {
			if s[col].Units == "timespan" {
				out = append(out, &ExplodeContinuous{Column: col, PeriodSeconds: opts.ExplodePeriodSeconds})
			}
		}
		return out
	})
}

// Name implements Transformation.
func (e *ExplodeContinuous) Name() string { return "explode_continuous" }

// Params implements Transformation.
func (e *ExplodeContinuous) Params() map[string]any {
	p := map[string]any{"column": e.Column, "period_seconds": e.PeriodSeconds}
	if e.As != "" {
		p["as"] = e.As
	}
	return p
}

func (e *ExplodeContinuous) out() string {
	if e.As != "" {
		return e.As
	}
	return e.Column + "_exploded"
}

// DeriveSchema implements Transformation: timespan units become datetime.
func (e *ExplodeContinuous) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	entry, ok := in[e.Column]
	if !ok {
		return nil, fmt.Errorf("explode_continuous: no column %q", e.Column)
	}
	if entry.Relation != semantics.Domain || entry.Units != "timespan" {
		return nil, fmt.Errorf("explode_continuous: column %q is not a timespan domain", e.Column)
	}
	if e.PeriodSeconds <= 0 {
		return nil, fmt.Errorf("explode_continuous: period must be positive, got %v", e.PeriodSeconds)
	}
	if _, exists := in[e.out()]; exists {
		return nil, fmt.Errorf("explode_continuous: output column %q already exists", e.out())
	}
	out := in.Clone()
	delete(out, e.Column)
	out[e.out()] = semantics.Entry{
		Relation:  semantics.Domain,
		Dimension: entry.Dimension,
		Units:     "datetime",
		// The exploded instants recur at exactly the explode period.
		CadenceSeconds: e.PeriodSeconds,
	}
	return out, nil
}

// Apply implements Transformation. Instants are aligned to multiples of the
// period; a span shorter than one period still yields its start instant, so
// no row vanishes entirely.
func (e *ExplodeContinuous) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := e.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	col, out := e.Column, e.out()
	periodNanos := int64(e.PeriodSeconds * 1e9)
	name := in.Name() + "|explode_continuous(" + col + ")"
	if in.IsColumnar() {
		frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame {
			return explodeContinuousFrame(f, col, out, periodNanos)
		})
		return dataset.NewFrames(name, frames.WithName(name), schema), nil
	}
	rows := rdd.FlatMap(in.Rows(), func(r value.Row) []value.Row {
		v := r.Get(col)
		if v.Kind() != value.KindSpan {
			return nil
		}
		start, end := v.SpanBounds()
		var res []value.Row
		for t := gridCeil(start, periodNanos); t < end; t += periodNanos {
			nr := r.Without(col)
			nr[out] = value.TimeNanos(t)
			res = append(res, nr)
		}
		if len(res) == 0 {
			nr := r.Without(col)
			nr[out] = value.TimeNanos(start)
			res = append(res, nr)
		}
		return res
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
