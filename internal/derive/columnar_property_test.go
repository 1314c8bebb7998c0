package derive

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// This suite pins the tentpole equivalence guarantee: every registered
// derivation produces bit-for-bit identical rows whether its inputs are
// row-form or columnar. Each derivation name has a generator of random
// valid instances; a registered derivation without a generator fails the
// suite, so a new operator cannot ship without columnar coverage. Outputs
// must agree as multisets at any partition count and in exact order on a
// single partition, and a columnar input must produce a columnar output.

type propInput struct {
	schema semantics.Schema
	rows   []value.Row
}

type propCase struct {
	params map[string]any
	inputs []propInput
	// wantRows, when nonzero, is the output row count both paths must
	// produce: it pins the lookalike cases, where both paths share the
	// key rendering and could agree on merging two keys.
	wantRows int
}

func cloneRows(rows []value.Row) []value.Row {
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

func rowStrings(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func mkFloat(rng *rand.Rand, base, spread float64) value.Value {
	return value.Float(base + spread*rng.Float64())
}

func propGenerators() map[string]func(*rand.Rand) propCase {
	nodeTempRows := func(rng *rand.Rand) []value.Row {
		n := 5 + rng.Intn(40)
		rows := make([]value.Row, n)
		for i := range rows {
			r := value.NewRow("node", value.Str(fmt.Sprintf("n%d", rng.Intn(5))))
			switch rng.Intn(6) {
			case 0: // missing
			case 1: // mixed kind forces boxed storage
				r["temp"] = value.Int(int64(290 + rng.Intn(20)))
			default:
				r["temp"] = mkFloat(rng, 290, 20)
			}
			rows[i] = r
		}
		return rows
	}

	return map[string]func(*rand.Rand) propCase{
		"filter": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			var params map[string]any
			switch rng.Intn(5) {
			case 0:
				params = map[string]any{"column": "temp", "op": ">=", "operand": "300"}
			case 1:
				params = map[string]any{"column": "temp", "op": "<", "operand": "305.5"}
			case 2:
				params = map[string]any{"column": "temp", "op": "!=", "operand": "295"}
			case 3:
				params = map[string]any{"column": "node", "op": "==", "operand": "n1"}
			default:
				params = map[string]any{"column": "node", "op": "contains", "operand": "1"}
			}
			return propCase{params: params, inputs: []propInput{{s, nodeTempRows(rng)}}}
		},
		"project": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"load", semantics.ValueEntry("fraction", "fraction"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			n := 5 + rng.Intn(30)
			rows := make([]value.Row, n)
			for i := range rows {
				r := value.NewRow("node", value.Str(fmt.Sprintf("n%d", rng.Intn(4))),
					"temp", mkFloat(rng, 290, 20))
				if rng.Intn(3) > 0 {
					r["load"] = mkFloat(rng, 0, 1)
				}
				rows[i] = r
			}
			return propCase{params: map[string]any{"values": []string{"load"}},
				inputs: []propInput{{s, rows}}}
		},
		"aggregate": func(rng *rand.Rand) propCase {
			// Two group columns, "cpu" sometimes absent; "temp" is typed
			// float, typed int, or mixed (boxed storage); "label" mixes
			// strings and numbers (Compare orders across kinds); node n4's
			// "temp" and "label" cells are all null or absent.
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"cpu", semantics.IDDomain("cpu"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
				"label", semantics.ValueEntry("identity", "identifier"),
			)
			rows := nodeTempRows(rng)
			labels := []value.Value{value.Str("b"), value.Str("a"), value.Int(3), value.Float(-1.5), value.Null()}
			storage := rng.Intn(3) // 0: typed float temps, 1: typed int, 2: mixed
			for _, r := range rows {
				if t, ok := r["temp"]; ok && storage < 2 {
					f, _ := t.AsFloat()
					r["temp"] = value.Float(f)
					if storage == 1 {
						r["temp"] = value.Int(int64(f))
					}
				}
				if rng.Intn(4) > 0 {
					r["cpu"] = value.Str(fmt.Sprintf("c%d", rng.Intn(2)))
				}
				if rng.Intn(4) > 0 {
					r["label"] = labels[rng.Intn(len(labels))]
				}
				if rng.Intn(6) == 0 {
					r["node"] = value.Str("n4")
					if _, ok := r["temp"]; ok && storage == 2 {
						r["temp"] = value.Null()
					} else {
						delete(r, "temp") // keeps typed storage typed
					}
					delete(r, "label")
				}
			}
			ops := []string{"mean", "sum", "min", "max", "count"}
			groupBy := []string{"node"}
			if rng.Intn(2) == 0 {
				groupBy = []string{"node", "cpu"}
			}
			return propCase{
				params: map[string]any{
					"group_by": groupBy,
					"ops": map[string]string{
						"temp":  ops[rng.Intn(len(ops))],
						"label": ops[rng.Intn(len(ops))],
					},
				},
				inputs: []propInput{{s, rows}},
			}
		},
		"explode_discrete": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"nodes", semantics.IDListDomain("compute_node"),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			n := 5 + rng.Intn(25)
			rows := make([]value.Row, n)
			for i := range rows {
				r := value.NewRow("load", mkFloat(rng, 0, 1))
				switch rng.Intn(6) {
				case 0: // missing list
				case 1:
					r["nodes"] = value.Null()
				case 2:
					r["nodes"] = value.List()
				default:
					k := 1 + rng.Intn(3)
					elems := make([]value.Value, k)
					for j := range elems {
						elems[j] = value.Str(fmt.Sprintf("n%d", rng.Intn(6)))
					}
					r["nodes"] = value.List(elems...)
				}
				rows[i] = r
			}
			return propCase{params: map[string]any{"column": "nodes"},
				inputs: []propInput{{s, rows}}}
		},
		"explode_continuous": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"span", semantics.SpanDomain(),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			n := 5 + rng.Intn(25)
			rows := make([]value.Row, n)
			for i := range rows {
				r := value.NewRow("load", mkFloat(rng, 0, 1))
				switch rng.Intn(6) {
				case 0: // missing span
				case 1: // wrong kind drops the row
					r["span"] = value.Str("bogus")
				default:
					start := int64(rng.Intn(5_000_000_000)) - 2_000_000_000
					r["span"] = value.Span(start, start+int64(rng.Intn(3_000_000_000)))
				}
				rows[i] = r
			}
			return propCase{params: map[string]any{"column": "span", "period_seconds": 0.5},
				inputs: []propInput{{s, rows}}}
		},
		"derive_rate": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"t", semantics.TimeDomain(),
				"cpu", semantics.IDDomain("cpu"),
				"instr", semantics.ValueEntry("instructions", "instructions"),
			)
			n := 6 + rng.Intn(40)
			rows := make([]value.Row, n)
			counts := map[int]int64{}
			for i := range rows {
				c := rng.Intn(3)
				counts[c] += int64(rng.Intn(1000))
				if rng.Intn(8) == 0 {
					counts[c] = int64(rng.Intn(100)) // counter reset
				}
				r := value.NewRow("cpu", value.Str(fmt.Sprintf("c%d", c)))
				if rng.Intn(10) > 0 {
					r["t"] = value.TimeNanos(int64(rng.Intn(20)) * 500_000_000)
				}
				switch rng.Intn(6) {
				case 0: // missing sample
				case 1:
					r["instr"] = value.Float(float64(counts[c]))
				default:
					r["instr"] = value.Int(counts[c])
				}
				rows[i] = r
			}
			return propCase{params: map[string]any{}, inputs: []propInput{{s, rows}}}
		},
		"rename_column": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			// nodeTempRows leaves some source cells absent; add explicit
			// nulls, which the row path moves like any present cell.
			rows := nodeTempRows(rng)
			for _, r := range rows {
				if rng.Intn(8) == 0 {
					r["temp"] = value.Null()
				}
			}
			return propCase{params: map[string]any{"from": "temp", "to": "T"},
				inputs: []propInput{{s, rows}}}
		},
		"convert_units": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			rows := nodeTempRows(rng)
			if rng.Intn(2) == 0 {
				// All-float, all-present column: the dense vector fast path.
				for _, r := range rows {
					r["temp"] = mkFloat(rng, 290, 20)
				}
			}
			return propCase{params: map[string]any{"column": "temp", "to": "degrees_celsius"},
				inputs: []propInput{{s, rows}}}
		},
		"derive_ratio": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"instr", semantics.ValueEntry("instructions", "instructions"),
				"dur", semantics.ValueEntry("time_duration", "seconds"),
			)
			n := 5 + rng.Intn(30)
			rows := make([]value.Row, n)
			for i := range rows {
				r := value.NewRow("node", value.Str(fmt.Sprintf("n%d", rng.Intn(4))))
				switch rng.Intn(5) {
				case 0: // missing numerator
				case 1:
					r["instr"] = mkFloat(rng, 0, 1e5)
				case 2:
					r["instr"] = value.Str("many") // not numeric
				default:
					r["instr"] = value.Int(int64(rng.Intn(100000)))
				}
				switch rng.Intn(6) {
				case 0: // missing denominator
				case 1:
					r["dur"] = value.Float(0) // division by zero
				case 2:
					r["dur"] = value.Int(0)
				case 3:
					r["dur"] = value.Int(int64(1 + rng.Intn(10)))
				default:
					r["dur"] = mkFloat(rng, 0.1, 10)
				}
				rows[i] = r
			}
			return propCase{
				params: map[string]any{"numerator": "instr", "denominator": "dur", "as": "ips"},
				inputs: []propInput{{s, rows}}}
		},
		"derive_duration": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"span", semantics.SpanDomain(),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			n := 5 + rng.Intn(25)
			rows := make([]value.Row, n)
			for i := range rows {
				r := value.NewRow("load", mkFloat(rng, 0, 1))
				switch rng.Intn(8) {
				case 0: // missing span
				case 1:
					r["span"] = value.Str("bogus") // not a span: no duration
				case 2:
					r["span"] = value.Null()
				case 3:
					r["span"] = value.TimeNanos(int64(rng.Intn(4_000_000_000)))
				default:
					start := int64(rng.Intn(4_000_000_000))
					r["span"] = value.Span(start, start+int64(rng.Intn(2_000_000_000)))
				}
				rows[i] = r
			}
			return propCase{params: map[string]any{}, inputs: []propInput{{s, rows}}}
		},
		"derive_heat": func(rng *rand.Rand) propCase {
			return propCase{params: map[string]any{}, inputs: []propInput{heatInput(rng)}}
		},
		"derive_active_frequency": func(rng *rand.Rand) propCase {
			s := semantics.NewSchema(
				"cpu", semantics.IDDomain("cpu"),
				"aperf", semantics.ValueEntry("aperf_cycles/time_duration", "count/seconds"),
				"mperf", semantics.ValueEntry("mperf_cycles/time_duration", "count/seconds"),
				"freq", semantics.ValueEntry("frequency", "gigahertz"),
			)
			n := 5 + rng.Intn(30)
			rows := make([]value.Row, n)
			for i := range rows {
				r := value.NewRow("cpu", value.Str(fmt.Sprintf("c%d", rng.Intn(4))),
					"freq", mkFloat(rng, 1, 3))
				if rng.Intn(4) == 0 {
					r["freq"] = value.Int(int64(1 + rng.Intn(3)))
				}
				switch rng.Intn(5) {
				case 0: // missing
				case 1:
					r["aperf"] = value.Int(int64(rng.Intn(3e9)))
				default:
					r["aperf"] = mkFloat(rng, 0, 3e9)
				}
				switch rng.Intn(6) {
				case 0: // missing
				case 1:
					r["mperf"] = value.Float(0)
				case 2:
					r["mperf"] = value.Int(0)
				case 3:
					r["mperf"] = value.Int(int64(1e9 + rng.Intn(1e9)))
				default:
					r["mperf"] = mkFloat(rng, 1e9, 2e9)
				}
				rows[i] = r
			}
			return propCase{params: map[string]any{}, inputs: []propInput{{s, rows}}}
		},
		"natural_join": func(rng *rand.Rand) propCase {
			if rng.Intn(3) == 0 {
				// Convertible-units join: the right side keys in Celsius and
				// must rescale to the left's Kelvin before matching.
				ls := semantics.NewSchema(
					"temp_k", semantics.DomainEntry("temperature", "kelvin"),
					"load", semantics.ValueEntry("fraction", "fraction"),
				)
				rs := semantics.NewSchema(
					"temp_c", semantics.DomainEntry("temperature", "degrees_celsius"),
					"fan", semantics.ValueEntry("fan_speed", "rpm"),
				)
				kelvins := []float64{290, 295.5, 300, 301.25}
				nl, nr := 1+rng.Intn(20), 1+rng.Intn(20)
				lrows := make([]value.Row, nl)
				for i := range lrows {
					lrows[i] = value.NewRow("temp_k", value.Float(kelvins[rng.Intn(len(kelvins))]),
						"load", value.Float(float64(i)))
				}
				rrows := make([]value.Row, nr)
				for i := range rrows {
					rrows[i] = value.NewRow("temp_c", value.Float(kelvins[rng.Intn(len(kelvins))]-273.15),
						"fan", value.Float(float64(1000+i)))
				}
				return propCase{inputs: []propInput{{ls, lrows}, {rs, rrows}}}
			}
			ls := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"cpu", semantics.IDDomain("cpu"),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			rs := semantics.NewSchema(
				"node_id", semantics.IDDomain("compute_node"),
				"cpu_id", semantics.IDDomain("cpu"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			keys := 1 + rng.Intn(6)
			nl, nr := 1+rng.Intn(40), 1+rng.Intn(40)
			lrows := make([]value.Row, nl)
			for i := range lrows {
				r := value.NewRow("node", value.Str(fmt.Sprintf("n%d", rng.Intn(keys))),
					"cpu", value.Str(fmt.Sprintf("c%d", rng.Intn(keys))))
				if rng.Intn(4) > 0 {
					r["load"] = value.Float(float64(i))
				}
				if rng.Intn(12) == 0 {
					delete(r, "node") // missing key cells must agree too
				}
				lrows[i] = r
			}
			rrows := make([]value.Row, nr)
			for i := range rrows {
				r := value.NewRow("node_id", value.Str(fmt.Sprintf("n%d", rng.Intn(keys))),
					"cpu_id", value.Str(fmt.Sprintf("c%d", rng.Intn(keys))),
					"temp", value.Float(300+float64(i)))
				if rng.Intn(12) == 0 {
					delete(r, "node_id")
				}
				rrows[i] = r
			}
			return propCase{inputs: []propInput{{ls, lrows}, {rs, rrows}}}
		},
		"interpolation_join": func(rng *rand.Rand) propCase {
			ls := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"t", semantics.TimeDomain(),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			rs := semantics.NewSchema(
				"node_id", semantics.IDDomain("compute_node"),
				"time", semantics.TimeDomain(),
				"sensor", semantics.IDDomain("rack"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
				"state", semantics.ValueEntry("identity", "identifier"),
			)
			nl, nr := 1+rng.Intn(25), 1+rng.Intn(25)
			instant := func() value.Value {
				return value.TimeNanos(int64(rng.Intn(10_000)) * 1_000_000)
			}
			lrows := make([]value.Row, nl)
			for i := range lrows {
				r := value.NewRow("node", value.Str(fmt.Sprintf("n%d", rng.Intn(3))),
					"load", value.Float(float64(i)))
				if rng.Intn(10) > 0 {
					r["t"] = instant()
				}
				lrows[i] = r
			}
			rrows := make([]value.Row, nr)
			for i := range rrows {
				r := value.NewRow("node_id", value.Str(fmt.Sprintf("n%d", rng.Intn(3))),
					"sensor", value.Str(fmt.Sprintf("s%d", rng.Intn(2))),
					"state", value.Str(fmt.Sprintf("ok%d", rng.Intn(2))))
				if rng.Intn(10) > 0 {
					r["time"] = instant()
				}
				if rng.Intn(5) > 0 {
					r["temp"] = mkFloat(rng, 290, 20)
				}
				rrows[i] = r
			}
			return propCase{params: map[string]any{"window_seconds": 1.0},
				inputs: []propInput{{ls, lrows}, {rs, rrows}}}
		},
	}
}

func applyDerivation(name string, pc propCase, ds []*dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	if len(ds) == 2 {
		c, err := NewCombination(name, pc.params)
		if err != nil {
			return nil, err
		}
		return c.Apply(ds[0], ds[1], dict)
	}
	tr, err := NewTransformation(name, pc.params)
	if err != nil {
		return nil, err
	}
	return tr.Apply(ds[0], dict)
}

// heatInput draws a derive_heat input that exercises what the group kernel
// can get wrong: Celsius or Kelvin readings (a unit conversion per group),
// Int temperatures among Float ones (boxed storage), missing and non-string
// aisle cells, and hot rows without a temperature ahead of the first valid
// one — each row's "seq" tells the representative row apart.
func heatInput(rng *rand.Rand) propInput {
	units := "kelvin"
	if rng.Intn(2) == 0 {
		units = "degrees_celsius"
	}
	s := semantics.NewSchema(
		"aisle", semantics.IDDomain("rack_aisle"),
		"rack", semantics.IDDomain("rack"),
		"t", semantics.TimeDomain(),
		"temp", semantics.ValueEntry("temperature", units),
		"seq", semantics.ValueEntry("count", "count"),
	)
	n := 6 + rng.Intn(40)
	rows := make([]value.Row, n)
	aisles := []value.Value{value.Str(AisleHot), value.Str(AisleCold), value.Str("other"), value.Int(1), value.Null()}
	mixed := rng.Intn(2) == 0
	for i := range rows {
		r := value.NewRow(
			"rack", value.Str(fmt.Sprintf("r%d", rng.Intn(3))),
			"t", value.TimeNanos(int64(rng.Intn(4))*1_000_000_000),
			"seq", value.Int(int64(i)),
		)
		switch k := rng.Intn(10); {
		case k < 4:
			r["aisle"] = value.Str(AisleHot)
		case k < 8:
			r["aisle"] = value.Str(AisleCold)
		case k == 8:
			r["aisle"] = aisles[2+rng.Intn(len(aisles)-2)]
		default: // missing aisle
		}
		switch k := rng.Intn(6); {
		case k == 0: // missing temperature
		case k == 1 && mixed:
			r["temp"] = value.Int(int64(15 + rng.Intn(20)))
		default:
			r["temp"] = mkFloat(rng, 15, 20)
		}
		rows[i] = r
	}
	return propInput{s, rows}
}

// TestColumnarMatchesRowPath runs every registered derivation on identical
// random inputs through both execution paths and requires identical rows:
// as a multiset always, and in exact order on one partition.
func TestColumnarMatchesRowPath(t *testing.T) {
	dict := semantics.DefaultDictionary()
	gens := propGenerators()

	names := append(TransformationNames(), CombinationNames()...)
	for _, name := range names {
		gen, ok := gens[name]
		if !ok {
			t.Errorf("registered derivation %q has no columnar property generator; add one to propGenerators", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)*131 + 7)))
			for trial := 0; trial < 12; trial++ {
				pc := gen(rng)
				for _, parts := range []int{1, 2, 3, 4} {
					ctx := rdd.NewContext(3)
					rowIn := make([]*dataset.Dataset, len(pc.inputs))
					colIn := make([]*dataset.Dataset, len(pc.inputs))
					for i, in := range pc.inputs {
						nm := fmt.Sprintf("in%d", i)
						rowIn[i] = dataset.FromRows(ctx, nm, cloneRows(in.rows), in.schema, parts)
						colIn[i] = dataset.FromRowsColumnar(ctx, nm, cloneRows(in.rows), in.schema, parts)
					}
					rowOut, err := applyDerivation(name, pc, rowIn, dict)
					if err != nil {
						t.Fatalf("trial %d parts %d: row path: %v", trial, parts, err)
					}
					colOut, err := applyDerivation(name, pc, colIn, dict)
					if err != nil {
						t.Fatalf("trial %d parts %d: columnar path: %v", trial, parts, err)
					}
					if !colOut.IsColumnar() {
						t.Fatalf("trial %d parts %d: columnar input produced a row-form output", trial, parts)
					}
					got := rowStrings(colOut.Collect())
					want := rowStrings(rowOut.Collect())
					if parts == 1 {
						if len(got) != len(want) {
							t.Fatalf("trial %d: got %d rows, want %d", trial, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("trial %d row %d (single partition, exact order):\n got %s\nwant %s",
									trial, i, got[i], want[i])
							}
						}
						continue
					}
					sort.Strings(got)
					sort.Strings(want)
					if len(got) != len(want) {
						t.Fatalf("trial %d parts %d: got %d rows, want %d", trial, parts, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("trial %d parts %d row %d (sorted):\n got %s\nwant %s",
								trial, parts, i, got[i], want[i])
						}
					}
				}
			}
		})
	}

	// Key cells of two kinds that render alike: the kernels key them
	// apart, and so must the row reference. Outputs compare by their
	// kind-tagged JSON, which tells the two cells apart where String
	// would not.
	for _, pair := range lookalikePairs {
		for name, gen := range lookalikeCases(pair) {
			t.Run("lookalike/"+pair.name+"/"+name, func(t *testing.T) {
				pc := gen()
				for _, parts := range []int{1, 2, 3} {
					ctx := rdd.NewContext(3)
					rowIn := make([]*dataset.Dataset, len(pc.inputs))
					colIn := make([]*dataset.Dataset, len(pc.inputs))
					for i, in := range pc.inputs {
						nm := fmt.Sprintf("in%d", i)
						rowIn[i] = dataset.FromRows(ctx, nm, cloneRows(in.rows), in.schema, parts)
						colIn[i] = dataset.FromRowsColumnar(ctx, nm, cloneRows(in.rows), in.schema, parts)
					}
					rowOut, err := applyDerivation(name, pc, rowIn, dict)
					if err != nil {
						t.Fatalf("parts %d: row path: %v", parts, err)
					}
					colOut, err := applyDerivation(name, pc, colIn, dict)
					if err != nil {
						t.Fatalf("parts %d: columnar path: %v", parts, err)
					}
					got, want := rowJSON(t, colOut.Collect()), rowJSON(t, rowOut.Collect())
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("parts %d:\n got %s\nwant %s", parts, got, want)
					}
					if len(got) != pc.wantRows {
						t.Fatalf("parts %d: %d rows, want %d (one per key kind):\n%s", parts, len(got), pc.wantRows, got)
					}
				}
			})
		}
	}
}

// rowJSON renders rows as sorted kind-tagged JSON.
func rowJSON(t *testing.T, rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

// lookalike is a pair of key cells of different kinds that render alike;
// a nil cell is absent.
type lookalike struct {
	name string
	a, b *value.Value
}

var lookalikePairs = []lookalike{
	{"int-vs-string", ptr(value.Int(1)), ptr(value.Str("1"))},
	{"absent-vs-empty", nil, ptr(value.Str(""))},
}

func ptr(v value.Value) *value.Value { return &v }

// setCell writes v to col, or leaves col absent when v is nil.
func setCell(r value.Row, col string, v *value.Value) value.Row {
	if v != nil {
		r[col] = *v
	}
	return r
}

// lookalikeCases builds, per derivation that keys on rendered values in
// its row reference, an input whose key column holds both cells of p.
func lookalikeCases(p lookalike) map[string]func() propCase {
	sec := func(i int) value.Value { return value.TimeNanos(int64(i) * 1_000_000_000) }
	return map[string]func() propCase{
		"natural_join": func() propCase {
			ls := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			rs := semantics.NewSchema(
				"node_id", semantics.IDDomain("compute_node"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			var lrows, rrows []value.Row
			for i, v := range []*value.Value{p.a, p.b, p.a, p.b} {
				lrows = append(lrows, setCell(value.NewRow("load", value.Float(float64(i))), "node", v))
				rrows = append(rrows, setCell(value.NewRow("temp", value.Float(300+float64(i))), "node_id", v))
			}
			return propCase{inputs: []propInput{{ls, lrows}, {rs, rrows}}, wantRows: 8}
		},
		"interpolation_join": func() propCase {
			ls := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"t", semantics.TimeDomain(),
				"load", semantics.ValueEntry("fraction", "fraction"),
			)
			rs := semantics.NewSchema(
				"node_id", semantics.IDDomain("compute_node"),
				"time", semantics.TimeDomain(),
				"sensor", semantics.IDDomain("rack"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			lrows := []value.Row{
				value.NewRow("node", value.Str("n0"), "t", sec(1), "load", value.Float(0.5)),
				value.NewRow("node", value.Str("n0"), "t", sec(3), "load", value.Float(0.25)),
			}
			var rrows []value.Row
			for i, v := range []*value.Value{p.a, p.b, p.a, p.b} {
				r := value.NewRow("node_id", value.Str("n0"), "time", sec(i+1), "temp", value.Float(290+float64(i)))
				rrows = append(rrows, setCell(r, "sensor", v))
			}
			return propCase{params: map[string]any{"window_seconds": 2.0},
				inputs: []propInput{{ls, lrows}, {rs, rrows}}, wantRows: 4}
		},
		"aggregate": func() propCase {
			s := semantics.NewSchema(
				"node", semantics.IDDomain("compute_node"),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			var rows []value.Row
			for i, v := range []*value.Value{p.a, p.b, p.a, p.b} {
				rows = append(rows, setCell(value.NewRow("temp", value.Float(290+float64(i))), "node", v))
			}
			return propCase{
				params:   map[string]any{"group_by": []string{"node"}, "ops": map[string]string{"temp": "sum"}},
				inputs:   []propInput{{s, rows}},
				wantRows: 2,
			}
		},
		"derive_heat": func() propCase {
			s := semantics.NewSchema(
				"aisle", semantics.IDDomain("rack_aisle"),
				"rack", semantics.IDDomain("rack"),
				"t", semantics.TimeDomain(),
				"temp", semantics.ValueEntry("temperature", "kelvin"),
			)
			var rows []value.Row
			for i, v := range []*value.Value{p.a, p.b, p.a, p.b} {
				aisle := AisleHot
				if i >= 2 {
					aisle = AisleCold
				}
				r := value.NewRow("aisle", value.Str(aisle), "t", sec(0), "temp", value.Float(300+float64(i)))
				rows = append(rows, setCell(r, "rack", v))
			}
			return propCase{params: map[string]any{}, inputs: []propInput{{s, rows}}, wantRows: 2}
		},
		"derive_rate": func() propCase {
			s := semantics.NewSchema(
				"t", semantics.TimeDomain(),
				"cpu", semantics.IDDomain("cpu"),
				"instr", semantics.ValueEntry("instructions", "instructions"),
			)
			var rows []value.Row
			for i, v := range []*value.Value{p.a, p.b, p.a, p.b, p.a, p.b} {
				r := value.NewRow("t", sec(i), "instr", value.Int(int64(100*i*i)))
				rows = append(rows, setCell(r, "cpu", v))
			}
			return propCase{params: map[string]any{}, inputs: []propInput{{s, rows}}, wantRows: 4}
		},
	}
}
