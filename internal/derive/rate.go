package derive

import (
	"fmt"
	"sort"
	"strings"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/units"
	"scrubjay/internal/value"
)

// DeriveRate converts cumulative counter columns into instantaneous rates
// (§7.3 "derive count rate"): node and CPU counters record cumulative event
// counts that reset at arbitrary intervals, so their absolute values are
// meaningless; the rate of change over the sampling window is the derived
// measurement. All counter columns are converted in one pass, matching the
// paper's Figure 7 ("Derive Count Rate ... several").
type DeriveRate struct {
	// TimeColumn is the datetime domain column; "" autodetects the single
	// datetime domain column.
	TimeColumn string
	// Columns are the counter columns to convert; empty autodetects every
	// cumulative counter value column.
	Columns []string
}

func init() {
	RegisterTransformation("derive_rate", func(p map[string]any) (Transformation, error) {
		tc, err := paramStringDefault(p, "time_column", "")
		if err != nil {
			return nil, err
		}
		var cols []string
		if raw, ok := p["columns"]; ok {
			list, ok := raw.([]any)
			if !ok {
				if sl, ok2 := raw.([]string); ok2 {
					cols = sl
				} else {
					return nil, fmt.Errorf("derive_rate: columns must be a list")
				}
			} else {
				for _, e := range list {
					s, ok := e.(string)
					if !ok {
						return nil, fmt.Errorf("derive_rate: columns must be strings")
					}
					cols = append(cols, s)
				}
			}
		}
		return &DeriveRate{TimeColumn: tc, Columns: cols}, nil
	})
	registerCandidateGenerator(func(s semantics.Schema, dict *semantics.Dictionary, _ CandidateOptions) []Transformation {
		d := &DeriveRate{}
		if _, _, err := d.resolve(s, dict); err == nil {
			return []Transformation{d}
		}
		return nil
	})
}

// Name implements Transformation.
func (d *DeriveRate) Name() string { return "derive_rate" }

// Params implements Transformation.
func (d *DeriveRate) Params() map[string]any {
	p := map[string]any{}
	if d.TimeColumn != "" {
		p["time_column"] = d.TimeColumn
	}
	if len(d.Columns) > 0 {
		cols := make([]any, len(d.Columns))
		for i, c := range d.Columns {
			cols[i] = c
		}
		p["columns"] = cols
	}
	return p
}

// isCounterEntry reports whether a column entry is a cumulative counter:
// a value on an ordered, discrete dimension whose units are not already a
// rate.
func isCounterEntry(e semantics.Entry, dict *semantics.Dictionary) bool {
	if e.Relation != semantics.Value {
		return false
	}
	dim, ok := dict.LookupDimension(e.Dimension)
	if !ok || !dim.Ordered || dim.Continuous {
		return false
	}
	if strings.Contains(e.Units, "/") {
		return false
	}
	if _, isList := units.IsList(e.Units); isList {
		return false
	}
	return true
}

// resolve determines the time column and counter columns.
func (d *DeriveRate) resolve(in semantics.Schema, dict *semantics.Dictionary) (timeCol string, counters []string, err error) {
	timeCol = d.TimeColumn
	if timeCol == "" {
		var times []string
		for _, c := range in.DomainColumns() {
			if in[c].Units == "datetime" {
				times = append(times, c)
			}
		}
		if len(times) != 1 {
			return "", nil, fmt.Errorf("derive_rate: need exactly one datetime domain column, found %d", len(times))
		}
		timeCol = times[0]
	} else if e, ok := in[timeCol]; !ok || e.Relation != semantics.Domain || e.Units != "datetime" {
		return "", nil, fmt.Errorf("derive_rate: column %q is not a datetime domain", timeCol)
	}
	counters = d.Columns
	if len(counters) == 0 {
		for _, c := range in.ValueColumns() {
			if isCounterEntry(in[c], dict) {
				counters = append(counters, c)
			}
		}
	} else {
		for _, c := range counters {
			e, ok := in[c]
			if !ok || !isCounterEntry(e, dict) {
				return "", nil, fmt.Errorf("derive_rate: column %q is not a cumulative counter", c)
			}
		}
	}
	if len(counters) == 0 {
		return "", nil, fmt.Errorf("derive_rate: no cumulative counter columns")
	}
	sort.Strings(counters)
	return timeCol, counters, nil
}

// RateColumn names the derived rate column for a counter column.
func RateColumn(counter string) string { return counter + "_rate" }

// DeriveSchema implements Transformation: each counter column is replaced by
// a rate column on dimension counter_dim/time_duration.
func (d *DeriveRate) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	_, counters, err := d.resolve(in, dict)
	if err != nil {
		return nil, err
	}
	out := in.Clone()
	for _, c := range counters {
		e := in[c]
		rc := RateColumn(c)
		if _, exists := out[rc]; exists {
			return nil, fmt.Errorf("derive_rate: output column %q already exists", rc)
		}
		delete(out, c)
		out[rc] = semantics.Entry{
			Relation:  semantics.Value,
			Dimension: e.Dimension + "/time_duration",
			Units:     units.Rate(e.Units, "seconds"),
		}
	}
	return out, nil
}

// Apply implements Transformation. Rows group by their non-time domain
// columns (the identity of the counter: one CPU, one socket), sort by time,
// and difference consecutive samples. Counter resets (a decrease) yield a
// null rate for that window rather than a bogus negative rate; the first
// sample of each group is dropped, having no predecessor.
func (d *DeriveRate) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := d.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	timeCol, counters, err := d.resolve(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	var groupCols []string
	for _, c := range in.Schema().DomainColumns() {
		if c != timeCol {
			groupCols = append(groupCols, c)
		}
	}
	name := in.Name() + "|derive_rate"
	if in.IsColumnar() {
		return rateColumnar(in, schema, name, timeCol, counters, groupCols), nil
	}
	grouped := rdd.GroupByKey(in.Rows(), func(r value.Row) string {
		return r.KeyStringOn(groupCols)
	})
	rows := rdd.FlatMap(grouped, func(g rdd.Group[value.Row]) []value.Row {
		items := g.Items
		sort.SliceStable(items, func(i, j int) bool {
			return items[i].Get(timeCol).Compare(items[j].Get(timeCol)) < 0
		})
		out := make([]value.Row, 0, len(items))
		for i := 1; i < len(items); i++ {
			prev, cur := items[i-1], items[i]
			dtNanos := cur.Get(timeCol).TimeNanosVal() - prev.Get(timeCol).TimeNanosVal()
			if dtNanos <= 0 {
				continue
			}
			dt := float64(dtNanos) / 1e9
			nr := cur.Clone()
			for _, c := range counters {
				delete(nr, c)
				pv, pok := prev.Get(c).AsFloat()
				cv, cok := cur.Get(c).AsFloat()
				if !pok || !cok || cv < pv {
					// Missing sample or counter reset: no valid rate.
					continue
				}
				nr[RateColumn(c)] = value.Float((cv - pv) / dt)
			}
			out = append(out, nr)
		}
		return out
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
