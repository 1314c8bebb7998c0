package derive

import (
	"fmt"
	"sort"
	"strings"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// This file implements the paper's footnote-1 "interoperability layer":
// the filtering, projection, and aggregation semantics of traditional
// relational tools, packaged as serializable transformations so they can
// appear in reproducible derivation sequences. The derivation engine never
// inserts them automatically — they express analyst intent, not inferred
// structure — so none of them register candidate generators.

// FilterRows keeps rows whose column satisfies a comparison against a
// constant operand.
type FilterRows struct {
	// Column is the column tested.
	Column string
	// Op is one of "==", "!=", "<", "<=", ">", ">=", "contains".
	Op string
	// Operand is the constant, in Value.Parse text form.
	Operand string
}

func init() {
	RegisterTransformation("filter", func(p map[string]any) (Transformation, error) {
		col, err := paramString(p, "column")
		if err != nil {
			return nil, err
		}
		op, err := paramString(p, "op")
		if err != nil {
			return nil, err
		}
		operand, err := paramString(p, "operand")
		if err != nil {
			return nil, err
		}
		return &FilterRows{Column: col, Op: op, Operand: operand}, nil
	})
}

// Name implements Transformation.
func (f *FilterRows) Name() string { return "filter" }

// Params implements Transformation.
func (f *FilterRows) Params() map[string]any {
	return map[string]any{"column": f.Column, "op": f.Op, "operand": f.Operand}
}

func (f *FilterRows) predicate(dict *semantics.Dictionary, e semantics.Entry) (func(value.Value) bool, error) {
	operand := value.Parse(f.Operand)
	switch f.Op {
	case "==":
		return func(v value.Value) bool { return v.Compare(operand) == 0 }, nil
	case "!=":
		return func(v value.Value) bool { return v.Compare(operand) != 0 }, nil
	case "<", "<=", ">", ">=":
		dim, ok := dict.LookupDimension(e.Dimension)
		if !ok || !dim.Ordered {
			return nil, fmt.Errorf("filter: column %q lies on unordered dimension %q; only == and != apply", f.Column, e.Dimension)
		}
		op := f.Op
		return func(v value.Value) bool {
			c := v.Compare(operand)
			switch op {
			case "<":
				return c < 0
			case "<=":
				return c <= 0
			case ">":
				return c > 0
			default:
				return c >= 0
			}
		}, nil
	case "contains":
		needle := operand.String()
		return func(v value.Value) bool {
			if v.Kind() == value.KindList {
				for i := 0; i < v.ListLen(); i++ {
					if v.ListAt(i).Compare(operand) == 0 {
						return true
					}
				}
				return false
			}
			return strings.Contains(v.String(), needle)
		}, nil
	default:
		return nil, fmt.Errorf("filter: unknown op %q", f.Op)
	}
}

// DeriveSchema implements Transformation: filtering never changes the
// schema, only validates the predicate.
func (f *FilterRows) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	e, ok := in[f.Column]
	if !ok {
		return nil, fmt.Errorf("filter: no column %q", f.Column)
	}
	if _, err := f.predicate(dict, e); err != nil {
		return nil, err
	}
	return in.Clone(), nil
}

// Apply implements Transformation. Rows whose column is null never match.
func (f *FilterRows) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := f.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	pred, err := f.predicate(dict, in.Schema()[f.Column])
	if err != nil {
		return nil, err
	}
	col := f.Column
	name := fmt.Sprintf("%s|filter(%s%s%s)", in.Name(), f.Column, f.Op, f.Operand)
	if in.IsColumnar() {
		return filterColumnar(in, schema, name, col, f.Op, value.Parse(f.Operand), pred), nil
	}
	rows := rdd.Filter(in.Rows(), func(r value.Row) bool {
		v := r.Get(col)
		return !v.IsNull() && pred(v)
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}

// ProjectColumns keeps only the listed value columns (all domain columns
// are always retained: per §4.3, a measurement defined over time may never
// not be defined over time, so projections cannot remove domains).
type ProjectColumns struct {
	// Values are the value columns to keep.
	Values []string
}

func init() {
	RegisterTransformation("project", func(p map[string]any) (Transformation, error) {
		raw, ok := p["values"]
		if !ok {
			return nil, fmt.Errorf("derive: missing parameter %q", "values")
		}
		var cols []string
		switch list := raw.(type) {
		case []any:
			for _, e := range list {
				s, ok := e.(string)
				if !ok {
					return nil, fmt.Errorf("project: values must be strings")
				}
				cols = append(cols, s)
			}
		case []string:
			cols = list
		default:
			return nil, fmt.Errorf("project: values must be a list")
		}
		return &ProjectColumns{Values: cols}, nil
	})
}

// Name implements Transformation.
func (p *ProjectColumns) Name() string { return "project" }

// Params implements Transformation.
func (p *ProjectColumns) Params() map[string]any {
	vals := make([]any, len(p.Values))
	for i, v := range p.Values {
		vals[i] = v
	}
	return map[string]any{"values": vals}
}

// DeriveSchema implements Transformation.
func (p *ProjectColumns) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	keep := map[string]bool{}
	for _, c := range p.Values {
		e, ok := in[c]
		if !ok {
			return nil, fmt.Errorf("project: no column %q", c)
		}
		if e.Relation != semantics.Value {
			return nil, fmt.Errorf("project: column %q is a domain; domains are always retained", c)
		}
		keep[c] = true
	}
	out := make(semantics.Schema, len(in))
	for c, e := range in {
		if e.Relation == semantics.Domain || keep[c] {
			out[c] = e
		}
	}
	return out, nil
}

// Apply implements Transformation.
func (p *ProjectColumns) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := p.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	cols := schema.Columns()
	name := in.Name() + "|project"
	if in.IsColumnar() {
		frames := rdd.Map(in.Frames(), func(f *frame.Frame) *frame.Frame { return f.Select(cols) })
		return dataset.NewFrames(name, frames.WithName(name), schema), nil
	}
	rows := rdd.Map(in.Rows(), func(r value.Row) value.Row { return r.Project(cols...) })
	return dataset.New(name, rows.WithName(name), schema), nil
}

// AggregateBy groups rows by the listed domain columns and aggregates value
// columns. Domain columns not listed are dropped — the analyst is
// deliberately coarsening the domain, which only the interoperability layer
// may do. Value columns not mentioned in Ops are dropped.
type AggregateBy struct {
	// GroupBy lists the domain columns to keep as the group key.
	GroupBy []string
	// Ops maps value columns to an aggregate: mean, sum, min, max, count.
	Ops map[string]string
}

func init() {
	RegisterTransformation("aggregate", func(p map[string]any) (Transformation, error) {
		var groupBy []string
		switch list := p["group_by"].(type) {
		case []any:
			for _, e := range list {
				s, ok := e.(string)
				if !ok {
					return nil, fmt.Errorf("aggregate: group_by must be strings")
				}
				groupBy = append(groupBy, s)
			}
		case []string:
			groupBy = list
		case nil:
			return nil, fmt.Errorf("derive: missing parameter %q", "group_by")
		default:
			return nil, fmt.Errorf("aggregate: group_by must be a list")
		}
		ops := map[string]string{}
		switch m := p["ops"].(type) {
		case map[string]any:
			for c, o := range m {
				s, ok := o.(string)
				if !ok {
					return nil, fmt.Errorf("aggregate: ops must map to strings")
				}
				ops[c] = s
			}
		case map[string]string:
			ops = m
		case nil:
			return nil, fmt.Errorf("derive: missing parameter %q", "ops")
		default:
			return nil, fmt.Errorf("aggregate: ops must be a map")
		}
		return &AggregateBy{GroupBy: groupBy, Ops: ops}, nil
	})
}

// Name implements Transformation.
func (a *AggregateBy) Name() string { return "aggregate" }

// Params implements Transformation.
func (a *AggregateBy) Params() map[string]any {
	gb := make([]any, len(a.GroupBy))
	for i, c := range a.GroupBy {
		gb[i] = c
	}
	ops := map[string]any{}
	for c, o := range a.Ops {
		ops[c] = o
	}
	return map[string]any{"group_by": gb, "ops": ops}
}

func validAggOp(op string) bool {
	switch op {
	case "mean", "sum", "min", "max", "count":
		return true
	default:
		return false
	}
}

// DeriveSchema implements Transformation. Count aggregates become plain
// counts; mean/sum/min/max keep the column's entry.
func (a *AggregateBy) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	if len(a.GroupBy) == 0 {
		return nil, fmt.Errorf("aggregate: group_by must be non-empty")
	}
	out := semantics.Schema{}
	for _, c := range a.GroupBy {
		e, ok := in[c]
		if !ok {
			return nil, fmt.Errorf("aggregate: no column %q", c)
		}
		if e.Relation != semantics.Domain {
			return nil, fmt.Errorf("aggregate: group column %q is not a domain", c)
		}
		out[c] = e
	}
	cols := make([]string, 0, len(a.Ops))
	for c := range a.Ops {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		op := a.Ops[c]
		if !validAggOp(op) {
			return nil, fmt.Errorf("aggregate: unknown op %q for column %q", op, c)
		}
		e, ok := in[c]
		if !ok {
			return nil, fmt.Errorf("aggregate: no column %q", c)
		}
		if e.Relation != semantics.Value {
			return nil, fmt.Errorf("aggregate: aggregated column %q is not a value", c)
		}
		outCol := c + "_" + op
		if op == "count" {
			out[outCol] = semantics.ValueEntry("count", "count")
		} else {
			out[outCol] = e
		}
	}
	return out, nil
}

// aggOp is one aggregate: value column col folded by op.
type aggOp struct{ col, op string }

// Apply implements Transformation.
func (a *AggregateBy) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := a.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	groupBy := append([]string(nil), a.GroupBy...)
	ops := make([]aggOp, 0, len(a.Ops))
	for c, o := range a.Ops {
		ops = append(ops, aggOp{c, o})
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].col < ops[j].col })
	name := in.Name() + "|aggregate"
	if in.IsColumnar() {
		return aggregateColumnar(in, schema, name, groupBy, ops), nil
	}

	grouped := rdd.GroupByKey(in.Rows(), func(r value.Row) string {
		return r.KeyStringOn(groupBy)
	})
	rows := rdd.Map(grouped, func(g rdd.Group[value.Row]) value.Row {
		out := g.Items[0].Project(groupBy...)
		for _, o := range ops {
			var vals []value.Value
			for _, r := range g.Items {
				if v := r.Get(o.col); !v.IsNull() {
					vals = append(vals, v)
				}
			}
			outCol := o.col + "_" + o.op
			switch o.op {
			case "count":
				out[outCol] = value.Int(int64(len(vals)))
			case "mean":
				out[outCol] = value.Mean(vals)
			case "sum":
				var sum float64
				any := false
				for _, v := range vals {
					if f, ok := v.AsFloat(); ok {
						sum += f
						any = true
					}
				}
				if any {
					out[outCol] = value.Float(sum)
				}
			case "min", "max":
				var best value.Value
				for _, v := range vals {
					if best.IsNull() ||
						(o.op == "min" && v.Compare(best) < 0) ||
						(o.op == "max" && v.Compare(best) > 0) {
						best = v
					}
				}
				if !best.IsNull() {
					out[outCol] = best
				}
			}
		}
		return out
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
