package derive

import (
	"fmt"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// Aisle labels used by the heat derivation.
const (
	AisleHot  = "hot"
	AisleCold = "cold"
)

// DeriveHeat computes instantaneous heat generation from paired hot- and
// cold-aisle temperature readings (§7.2): the facility places sensors on
// both aisles of each rack, and the hot-minus-cold temperature difference at
// one instant approximates the heat the rack is generating. Rows group by
// every domain except the aisle; each group with both aisle readings yields
// one row with a "heat" value column.
type DeriveHeat struct {
	// AisleColumn is the domain column on the rack_aisle dimension; ""
	// autodetects it.
	AisleColumn string
	// TempColumn is the temperature value column; "" autodetects it.
	TempColumn string
	// As names the output column; defaults to "heat".
	As string
}

func init() {
	RegisterTransformation("derive_heat", func(p map[string]any) (Transformation, error) {
		aisle, err := paramStringDefault(p, "aisle_column", "")
		if err != nil {
			return nil, err
		}
		temp, err := paramStringDefault(p, "temp_column", "")
		if err != nil {
			return nil, err
		}
		as, err := paramStringDefault(p, "as", "")
		if err != nil {
			return nil, err
		}
		return &DeriveHeat{AisleColumn: aisle, TempColumn: temp, As: as}, nil
	})
	registerCandidateGenerator(func(s semantics.Schema, dict *semantics.Dictionary, _ CandidateOptions) []Transformation {
		d := &DeriveHeat{}
		if _, _, err := d.resolve(s); err == nil {
			return []Transformation{d}
		}
		return nil
	})
}

// Name implements Transformation.
func (d *DeriveHeat) Name() string { return "derive_heat" }

// Params implements Transformation.
func (d *DeriveHeat) Params() map[string]any {
	p := map[string]any{}
	if d.AisleColumn != "" {
		p["aisle_column"] = d.AisleColumn
	}
	if d.TempColumn != "" {
		p["temp_column"] = d.TempColumn
	}
	if d.As != "" {
		p["as"] = d.As
	}
	return p
}

func (d *DeriveHeat) out() string {
	if d.As != "" {
		return d.As
	}
	return "heat"
}

func (d *DeriveHeat) resolve(in semantics.Schema) (aisleCol, tempCol string, err error) {
	aisleCol = d.AisleColumn
	if aisleCol == "" {
		cols := in.ColumnsOnDimension(semantics.Domain, "rack_aisle")
		if len(cols) != 1 {
			return "", "", fmt.Errorf("derive_heat: need exactly one rack_aisle domain column, found %d", len(cols))
		}
		aisleCol = cols[0]
	} else if e, ok := in[aisleCol]; !ok || e.Relation != semantics.Domain {
		return "", "", fmt.Errorf("derive_heat: column %q is not a domain", aisleCol)
	}
	tempCol = d.TempColumn
	if tempCol == "" {
		cols := in.ColumnsOnDimension(semantics.Value, "temperature")
		if len(cols) != 1 {
			return "", "", fmt.Errorf("derive_heat: need exactly one temperature value column, found %d", len(cols))
		}
		tempCol = cols[0]
	} else if e, ok := in[tempCol]; !ok || e.Relation != semantics.Value || e.Dimension != "temperature" {
		return "", "", fmt.Errorf("derive_heat: column %q is not a temperature value", tempCol)
	}
	return aisleCol, tempCol, nil
}

// DeriveSchema implements Transformation: the aisle domain and temperature
// value are replaced by a heat value on the temperature_difference
// dimension.
func (d *DeriveHeat) DeriveSchema(in semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	aisleCol, tempCol, err := d.resolve(in)
	if err != nil {
		return nil, err
	}
	if _, exists := in[d.out()]; exists {
		return nil, fmt.Errorf("derive_heat: output column %q already exists", d.out())
	}
	out := in.Clone()
	delete(out, aisleCol)
	delete(out, tempCol)
	out[d.out()] = semantics.Entry{
		Relation:  semantics.Value,
		Dimension: "temperature_difference",
		Units:     "delta_celsius",
	}
	return out, nil
}

// Apply implements Transformation. Temperatures convert to kelvin before
// differencing (so mixed-unit inputs work); a kelvin difference equals a
// celsius difference. Groups with multiple readings per aisle average them;
// groups missing either aisle are dropped.
func (d *DeriveHeat) Apply(in *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := d.DeriveSchema(in.Schema(), dict)
	if err != nil {
		return nil, err
	}
	aisleCol, tempCol, err := d.resolve(in.Schema())
	if err != nil {
		return nil, err
	}
	tempUnits := in.Schema()[tempCol].Units
	u := dict.Units
	var groupCols []string
	for _, c := range in.Schema().DomainColumns() {
		if c != aisleCol {
			groupCols = append(groupCols, c)
		}
	}
	out := d.out()
	name := in.Name() + "|derive_heat"
	if in.IsColumnar() {
		// nil when the units do not convert: every row then lacks a
		// temperature, as the row path's per-row Convert error makes it.
		toKelvin, _ := u.Converter(tempUnits, "kelvin")
		return heatColumnar(in, schema, name, groupCols, aisleCol, tempCol, out, toKelvin), nil
	}
	grouped := rdd.GroupByKey(in.Rows(), func(r value.Row) string {
		return r.KeyStringOn(groupCols)
	})
	rows := rdd.FlatMap(grouped, func(g rdd.Group[value.Row]) []value.Row {
		var hotSum, coldSum float64
		var hotN, coldN int
		var base value.Row
		for _, r := range g.Items {
			t, ok := r.Get(tempCol).AsFloat()
			if !ok {
				continue
			}
			k, err := u.Convert(t, tempUnits, "kelvin")
			if err != nil {
				continue
			}
			switch r.Get(aisleCol).StrVal() {
			case AisleHot:
				hotSum += k
				hotN++
				if base == nil {
					base = r
				}
			case AisleCold:
				coldSum += k
				coldN++
			}
		}
		if hotN == 0 || coldN == 0 {
			return nil
		}
		heat := hotSum/float64(hotN) - coldSum/float64(coldN)
		nr := base.Without(aisleCol)
		delete(nr, tempCol)
		nr[out] = value.Float(heat)
		return []value.Row{nr}
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
