package derive

import (
	"fmt"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// DeriveActiveFrequency computes the active CPU frequency from APERF/MPERF
// counter rates and the CPU's base frequency (§7.3): MPERF increments at the
// base frequency and APERF at the active frequency, so
//
//	active = (APERF rate / MPERF rate) * base frequency.
//
// The base frequency is not available from the counters themselves; it
// arrives via a natural join with the static CPU-specification dataset,
// which is exactly the relation the derivation engine infers in the paper's
// Figure 7.
type DeriveActiveFrequency struct {
	// AperfRate, MperfRate, and BaseFrequency name the input value columns;
	// empty fields autodetect by dimension (aperf_cycles/time_duration,
	// mperf_cycles/time_duration, frequency).
	AperfRate     string
	MperfRate     string
	BaseFrequency string
	// As names the output column; defaults to "active_frequency".
	As string
}

func init() {
	RegisterTransformation("derive_active_frequency", func(p map[string]any) (Transformation, error) {
		a, err := paramStringDefault(p, "aperf_rate", "")
		if err != nil {
			return nil, err
		}
		m, err := paramStringDefault(p, "mperf_rate", "")
		if err != nil {
			return nil, err
		}
		b, err := paramStringDefault(p, "base_frequency", "")
		if err != nil {
			return nil, err
		}
		as, err := paramStringDefault(p, "as", "")
		if err != nil {
			return nil, err
		}
		return &DeriveActiveFrequency{AperfRate: a, MperfRate: m, BaseFrequency: b, As: as}, nil
	})
	registerCandidateGenerator(func(s semantics.Schema, dict *semantics.Dictionary, _ CandidateOptions) []Transformation {
		d := &DeriveActiveFrequency{}
		if _, _, _, err := d.resolve(s); err == nil {
			return []Transformation{d}
		}
		return nil
	})
}

// Name implements Transformation.
func (d *DeriveActiveFrequency) Name() string { return "derive_active_frequency" }

// Params implements Transformation.
func (d *DeriveActiveFrequency) Params() map[string]any {
	p := map[string]any{}
	if d.AperfRate != "" {
		p["aperf_rate"] = d.AperfRate
	}
	if d.MperfRate != "" {
		p["mperf_rate"] = d.MperfRate
	}
	if d.BaseFrequency != "" {
		p["base_frequency"] = d.BaseFrequency
	}
	if d.As != "" {
		p["as"] = d.As
	}
	return p
}

func (d *DeriveActiveFrequency) out() string {
	if d.As != "" {
		return d.As
	}
	return "active_frequency"
}

func pickOne(in semantics.Schema, explicit, what string, rel semantics.RelationType, dim string) (string, error) {
	if explicit != "" {
		e, ok := in[explicit]
		if !ok || e.Relation != rel || e.Dimension != dim {
			return "", fmt.Errorf("derive_active_frequency: column %q is not a %s", explicit, what)
		}
		return explicit, nil
	}
	cols := in.ColumnsOnDimension(rel, dim)
	if len(cols) != 1 {
		return "", fmt.Errorf("derive_active_frequency: need exactly one %s column, found %d", what, len(cols))
	}
	return cols[0], nil
}

func (d *DeriveActiveFrequency) resolve(in semantics.Schema) (aperf, mperf, base string, err error) {
	aperf, err = pickOne(in, d.AperfRate, "APERF rate", semantics.Value, "aperf_cycles/time_duration")
	if err != nil {
		return
	}
	mperf, err = pickOne(in, d.MperfRate, "MPERF rate", semantics.Value, "mperf_cycles/time_duration")
	if err != nil {
		return
	}
	base, err = pickOne(in, d.BaseFrequency, "base frequency", semantics.Value, "frequency")
	return
}

// DeriveSchema implements Transformation: adds an active-frequency value
// column in the base frequency's units.
func (d *DeriveActiveFrequency) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	_, _, base, err := d.resolve(in)
	if err != nil {
		return nil, err
	}
	if _, exists := in[d.out()]; exists {
		return nil, fmt.Errorf("derive_active_frequency: output column %q already exists", d.out())
	}
	out := in.Clone()
	out[d.out()] = semantics.Entry{
		Relation:  semantics.Value,
		Dimension: "active_frequency",
		Units:     in[base].Units,
	}
	return out, nil
}

// Apply implements Transformation. Rows missing any operand, or with a zero
// MPERF rate (idle window), carry no active-frequency value.
func (d *DeriveActiveFrequency) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := d.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	aperf, mperf, base, err := d.resolve(in.Schema())
	if err != nil {
		return nil, err
	}
	out := d.out()
	name := in.Name() + "|derive_active_frequency"
	if in.IsColumnar() {
		return floatColumnKernel(in, schema, name, out, activeFrequencyCells(aperf, mperf, base)), nil
	}
	rows := rdd.Map(in.Rows(), func(r value.Row) value.Row {
		a, aok := r.Get(aperf).AsFloat()
		m, mok := r.Get(mperf).AsFloat()
		b, bok := r.Get(base).AsFloat()
		if !aok || !mok || !bok || m == 0 {
			return r
		}
		return r.With(out, value.Float(a/m*b))
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
