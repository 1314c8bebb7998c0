package derive

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// groupCase is one instance of a group-kernel derivation and its input.
type groupCase struct {
	tr     Transformation
	schema semantics.Schema
	rows   []value.Row
}

// checkGroupKernel runs c through the row-form reference and the columnar
// kernel at the given partition count and requires the same rows, compared
// kind-tagged: in exactly the same order on one partition, as a multiset
// otherwise.
func checkGroupKernel(t testing.TB, c groupCase, parts int) {
	t.Helper()
	dict := semantics.DefaultDictionary()
	ctx := rdd.NewContext(3)
	ref, err := c.tr.Apply(dataset.FromRows(ctx, "in", cloneRows(c.rows), c.schema, parts), dict)
	if err != nil {
		t.Fatalf("row path: %v", err)
	}
	out, err := c.tr.Apply(dataset.FromRowsColumnar(ctx, "in", cloneRows(c.rows), c.schema, parts), dict)
	if err != nil {
		t.Fatalf("columnar path: %v", err)
	}
	if !out.IsColumnar() {
		t.Fatal("columnar input produced a row-form output")
	}
	got, want := encodeRows(t, out.Collect()), encodeRows(t, ref.Collect())
	order := "exact order"
	if parts > 1 {
		sort.Strings(got)
		sort.Strings(want)
		order = "sorted"
	}
	if len(got) != len(want) {
		t.Fatalf("%s parts %d: kernel %d rows, reference %d rows\n got %v\nwant %v", c.tr.Name(), parts, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s parts %d row %d (%s):\n got %s\nwant %s", c.tr.Name(), parts, i, order, got[i], want[i])
		}
	}
}

// groupCaseFromBytes builds an aggregate or derive_heat instance from fuzz
// bytes. Group columns mix kinds (boxed storage, cross-kind routing) but
// never two values that render alike — the row path groups by rendered
// text, the kernel kind-strictly (see group_columnar.go). Value cells come
// from a float-only, an int-only or an everything palette: nulls, NaN,
// strings, bools and times, so both the typed accumulators and the boxed
// fallback run.
func groupCaseFromBytes(data []byte) (groupCase, int) {
	src := byteSource(data)
	parts := 1 + src.next(3)
	nan, negZero := value.Float(math.NaN()), value.Float(math.Copysign(0, -1))
	// Ties that Compare calls equal but that differ in value: 0 and -0,
	// and two ints one apart above 2^53, which compare as one float.
	palettes := [][]value.Value{
		{value.Float(300.5), value.Float(-2), value.Float(0), nan, negZero},
		{value.Int(300), value.Int(-2), value.Int(7), value.Int(1 << 60), value.Int(1<<60 + 1)},
		{value.Null(), value.Int(300), value.Float(300.5), nan, value.Str("warm"), value.Str("cool"),
			value.Bool(true), value.TimeNanos(3e9), value.TimeNanos(5e9), negZero, value.Float(0)},
	}
	palette := palettes[src.next(len(palettes))]
	cell := func(r value.Row, col string) {
		if k := src.next(len(palette) + 1); k < len(palette) {
			r[col] = palette[k]
		}
	}
	pick := func(r value.Row, col string, vals []value.Value) {
		if k := src.next(len(vals) + 1); k < len(vals) {
			r[col] = vals[k]
		}
	}
	n := src.next(24)
	rows := make([]value.Row, n)

	if src.next(2) == 0 {
		units := []string{"kelvin", "degrees_celsius", "degrees_fahrenheit"}[src.next(3)]
		schema := semantics.NewSchema(
			"aisle", semantics.IDDomain("rack_aisle"),
			"rack", semantics.IDDomain("rack"),
			"t", semantics.TimeDomain(),
			"temp", semantics.ValueEntry("temperature", units),
			"seq", semantics.ValueEntry("count", "count"),
		)
		aisles := []value.Value{value.Str(AisleHot), value.Str(AisleCold), value.Str(AisleHot), value.Str(AisleCold),
			value.Str("other"), value.Int(1), value.Null()}
		for i := range rows {
			r := value.NewRow("seq", value.Int(int64(i)))
			pick(r, "aisle", aisles)
			pick(r, "rack", []value.Value{value.Str("r0"), value.Str("r1"), value.Int(3)})
			pick(r, "t", []value.Value{sec(0), sec(1), sec(0), sec(1)})
			cell(r, "temp")
			rows[i] = r
		}
		return groupCase{tr: &DeriveHeat{}, schema: schema, rows: rows}, parts
	}

	schema := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"cpu", semantics.IDDomain("cpu"),
		"temp", semantics.ValueEntry("temperature", "kelvin"),
		"label", semantics.ValueEntry("identity", "identifier"),
	)
	for i := range rows {
		r := value.Row{}
		pick(r, "node", []value.Value{value.Str("n0"), value.Str("n1"), value.Int(7), value.Str("n0")})
		pick(r, "cpu", []value.Value{value.Str("c0"), value.Float(2.5)})
		cell(r, "temp")
		cell(r, "label")
		rows[i] = r
	}
	ops := []string{"mean", "sum", "min", "max", "count"}
	groupBy := []string{"node"}
	if src.next(2) == 0 {
		groupBy = append(groupBy, "cpu")
	}
	tr := &AggregateBy{GroupBy: groupBy, Ops: map[string]string{
		"temp":  ops[src.next(len(ops))],
		"label": ops[src.next(len(ops))],
	}}
	return groupCase{tr: tr, schema: schema, rows: rows}, parts
}

// TestGroupKernelEdgeCases pins, against the row-form reference, the cases
// a typed accumulator most easily gets wrong.
func TestGroupKernelEdgeCases(t *testing.T) {
	negZero := value.Float(math.Copysign(0, -1))
	big := int64(1) << 60
	aggSchema := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"a", semantics.ValueEntry("temperature", "kelvin"),
		"b", semantics.ValueEntry("temperature", "kelvin"),
		"c", semantics.ValueEntry("temperature", "kelvin"),
		"d", semantics.ValueEntry("temperature", "kelvin"),
	)
	agg := func(ops map[string]string, rows ...value.Row) groupCase {
		return groupCase{tr: &AggregateBy{GroupBy: []string{"node"}, Ops: ops}, schema: aggSchema, rows: rows}
	}
	n := func(node string, pairs ...any) value.Row {
		return value.NewRow(append([]any{"node", value.Str(node)}, pairs...)...)
	}
	heatSchema := func(units string) semantics.Schema {
		return semantics.NewSchema(
			"aisle", semantics.IDDomain("rack_aisle"),
			"rack", semantics.IDDomain("rack"),
			"temp", semantics.ValueEntry("temperature", units),
			"seq", semantics.ValueEntry("count", "count"),
		)
	}
	h := func(seq int, aisle string, temp ...value.Value) value.Row {
		r := value.NewRow("rack", value.Str("r0"), "aisle", value.Str(aisle), "seq", value.Int(int64(seq)))
		if len(temp) > 0 {
			r["temp"] = temp[0]
		}
		return r
	}
	cases := map[string]groupCase{
		"float ties keep the first extreme": agg(map[string]string{"a": "min", "b": "max"},
			n("n0", "a", value.Float(0), "b", negZero), n("n0", "a", negZero, "b", value.Float(0)),
			n("n1", "a", negZero, "b", value.Float(0)), n("n1", "a", value.Float(0), "b", negZero)),
		"int ties above 2^53 keep the first extreme": agg(map[string]string{"a": "min", "b": "max"},
			n("n0", "a", value.Int(big+1), "b", value.Int(big)), n("n0", "a", value.Int(big), "b", value.Int(big+1))),
		"null group: null mean, zero count, no sum, no min": agg(map[string]string{"a": "mean", "b": "count", "c": "sum", "d": "min"},
			n("n0", "a", value.Float(1), "b", value.Float(1), "c", value.Float(1), "d", value.Float(1)),
			n("n4", "a", value.Null(), "b", value.Null()), n("n4")),
		"times mean to a time": agg(map[string]string{"a": "mean", "b": "sum", "c": "max"},
			n("n0", "a", sec(1), "b", sec(2), "c", sec(3)), n("n0", "a", sec(2), "b", value.Str("x"), "c", value.Float(1e12))),
		"heat: first hot row with a temperature represents": {tr: &DeriveHeat{}, schema: heatSchema("kelvin"), rows: []value.Row{
			h(0, AisleHot), h(1, AisleCold, value.Float(290)), h(2, AisleHot, value.Float(300)), h(3, AisleHot, value.Int(301)),
		}},
		"heat: celsius converts before differencing": {tr: &DeriveHeat{}, schema: heatSchema("degrees_celsius"), rows: []value.Row{
			h(0, AisleCold, value.Float(17.3)), h(1, AisleHot, value.Float(31.7)), h(2, AisleHot, value.Float(29.9)),
		}},
		"heat: a group missing an aisle is dropped": {tr: &DeriveHeat{}, schema: heatSchema("kelvin"), rows: []value.Row{
			h(0, AisleHot, value.Float(300)), h(1, "other", value.Float(290)),
		}},
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, parts := range []int{1, 2, 3} {
				checkGroupKernel(t, cases[name], parts)
			}
		})
	}
}

// groupSeeds is FuzzGroupAggregate's seed corpus.
func groupSeeds() [][]byte {
	seeds := [][]byte{{}}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 96; i++ {
		seed := make([]byte, 16+rng.Intn(160))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzGroupAggregate is differential: the group kernel under aggregate and
// derive_heat must equal the row-form reference on every generated input,
// in exact order on one partition. The seed corpus runs as an ordinary
// test.
func FuzzGroupAggregate(f *testing.F) {
	for _, seed := range groupSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, parts := groupCaseFromBytes(data)
		checkGroupKernel(t, c, parts)
	})
}

// TestGroupKernelBytesPerRow: aggregate (a mean over 4,096 string keys,
// four rows each) allocates at most a bound per input row in all: routing,
// the key index, the group lists, the arrival-order copy emit reads and
// the output. At four source partitions every destination receives at
// least three pieces, which the key index reads in place; building it over
// a concatenated copy that carried every row's hash once more measured
// 119 bytes a row. At one partition the lone whole piece is read as it is,
// not copied (88).
func TestGroupKernelBytesPerRow(t *testing.T) {
	const n, keys = 1 << 14, 4096
	s := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"temp", semantics.ValueEntry("temperature", "kelvin"),
	)
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.NewRow("node", value.Str(fmt.Sprintf("n%04d", i%keys)), "temp", value.Float(float64(290+i%50)))
	}
	agg := &AggregateBy{GroupBy: []string{"node"}, Ops: map[string]string{"temp": "mean"}}
	dict := semantics.DefaultDictionary()
	for _, c := range []struct {
		parts int
		bound float64
	}{{4, 115}, {1, 90}} {
		ctx := rdd.NewContext(2)
		in := dataset.FromRowsColumnar(ctx, "in", rows, s, c.parts)
		if c.parts > 1 {
			ex := hashExchange(in.Frames(), []string{"node"}, nil, c.parts, "pieces")
			pieces := rdd.MapPartitions(ex, func(_ int, kfs []keyedFrame) []int { return []int{len(kfs)} }).Collect()
			if slices.Min(pieces) < 3 {
				t.Fatalf("pieces per destination %v, want at least 3 each", pieces)
			}
		}
		run := func() {
			out, err := agg.Apply(in, dict)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Count(); got != keys {
				t.Fatalf("aggregate over %d keys emitted %d rows", keys, got)
			}
		}
		run() // pivots the input's frames, which later runs reuse
		best := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if perRow := float64(best) / n; perRow > c.bound {
			t.Errorf("%d partitions: aggregate allocated %.1f bytes per input row, want at most %g", c.parts, perRow, c.bound)
		} else {
			t.Logf("%d partitions: %.1f bytes per input row", c.parts, perRow)
		}
	}
}
