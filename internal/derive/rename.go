package derive

import (
	"fmt"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// RenameColumn relabels a column without changing its semantics — part of
// the interoperability layer: external tools consuming unwrapped results
// often expect specific header names. Never auto-inserted by the engine
// (ScrubJay itself matches columns by semantics, not by name).
type RenameColumn struct {
	// From and To are the old and new column names.
	From string
	To   string
}

func init() {
	RegisterTransformation("rename_column", func(p map[string]any) (Transformation, error) {
		from, err := paramString(p, "from")
		if err != nil {
			return nil, err
		}
		to, err := paramString(p, "to")
		if err != nil {
			return nil, err
		}
		return &RenameColumn{From: from, To: to}, nil
	})
}

// Name implements Transformation.
func (r *RenameColumn) Name() string { return "rename_column" }

// Params implements Transformation.
func (r *RenameColumn) Params() map[string]any {
	return map[string]any{"from": r.From, "to": r.To}
}

// DeriveSchema implements Transformation.
func (r *RenameColumn) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	e, ok := in[r.From]
	if !ok {
		return nil, fmt.Errorf("rename_column: no column %q", r.From)
	}
	if r.To == "" || r.To == r.From {
		return nil, fmt.Errorf("rename_column: target name %q invalid", r.To)
	}
	if _, exists := in[r.To]; exists {
		return nil, fmt.Errorf("rename_column: column %q already exists", r.To)
	}
	out := in.Clone()
	delete(out, r.From)
	out[r.To] = e
	return out, nil
}

// Apply implements Transformation.
func (r *RenameColumn) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := r.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	from, to := r.From, r.To
	name := fmt.Sprintf("%s|rename(%s->%s)", in.Name(), from, to)
	if in.IsColumnar() {
		return renameColumnar(in, schema, name, from, to), nil
	}
	rows := rdd.Map(in.Rows(), func(row value.Row) value.Row {
		v, ok := row[from]
		if !ok {
			return row
		}
		nr := row.Without(from)
		nr[to] = v
		return nr
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
