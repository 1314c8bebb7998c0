package derive

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func layoutSchema() semantics.Schema {
	return semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"rack", semantics.IDDomain("rack"),
	)
}

func layoutRows() []value.Row {
	return []value.Row{
		value.NewRow("node", value.Str("n1"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n2"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n3"), "rack", value.Str("r18")),
	}
}

func TestNaturalJoinSemanticColumnMatching(t *testing.T) {
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	// Left uses column name "node_id"; right uses "node". They join because
	// both are domains on compute_node.
	ls := semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
	)
	lrows := []value.Row{
		value.NewRow("node_id", value.Str("n1"), "temp", value.Float(60)),
		value.NewRow("node_id", value.Str("n3"), "temp", value.Float(70)),
		value.NewRow("node_id", value.Str("nX"), "temp", value.Float(80)),
	}
	left := dataset.FromRows(ctx, "temps", lrows, ls, 2)
	right := dataset.FromRows(ctx, "layout", layoutRows(), layoutSchema(), 1)

	nj := &NaturalJoin{}
	out, err := nj.Apply(left, right, dict)
	if err != nil {
		t.Fatal(err)
	}
	sch := out.Schema()
	if _, ok := sch["node"]; ok {
		t.Error("right join column should be dropped from schema")
	}
	if _, ok := sch["node_id"]; !ok {
		t.Error("left join column kept")
	}
	if _, ok := sch["rack"]; !ok {
		t.Error("right payload column kept")
	}
	rows := out.SortedBy("node_id")
	if len(rows) != 2 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[0].Get("rack").StrVal() != "r17" || rows[1].Get("rack").StrVal() != "r18" {
		t.Errorf("join result wrong: %v", rows)
	}
	if rows[0].Has("node") {
		t.Error("right join column should be dropped from rows")
	}
	if err := out.Validate(dict); err != nil {
		t.Errorf("joined dataset invalid: %v", err)
	}
}

func TestNaturalJoinAllSharedDimensionsMustMatch(t *testing.T) {
	// Two CPU measurements at the same time but on different CPUs do not
	// relate (§4.3): join is on (cpu, time), not time alone.
	ctx := rdd.NewContext(1)
	dict := semantics.DefaultDictionary()
	s1 := semantics.NewSchema(
		"cpu", semantics.IDDomain("cpu"),
		"time", semantics.TimeDomain(),
		"ipc", semantics.ValueEntry("instructions/time_duration", "count/seconds"),
	)
	s2 := semantics.NewSchema(
		"cpu_id", semantics.IDDomain("cpu"),
		"ts", semantics.TimeDomain(),
		"faults", semantics.ValueEntry("count", "count"),
	)
	a := dataset.FromRows(ctx, "a", []value.Row{
		value.NewRow("cpu", value.Str("c0"), "time", value.TimeNanos(100), "ipc", value.Float(1)),
		value.NewRow("cpu", value.Str("c1"), "time", value.TimeNanos(100), "ipc", value.Float(2)),
	}, s1, 1)
	b := dataset.FromRows(ctx, "b", []value.Row{
		value.NewRow("cpu_id", value.Str("c0"), "ts", value.TimeNanos(100), "faults", value.Int(5)),
		value.NewRow("cpu_id", value.Str("c1"), "ts", value.TimeNanos(200), "faults", value.Int(9)),
	}, s2, 1)
	out, err := (&NaturalJoin{}).Apply(a, b, dict)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Collect()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Get("cpu").StrVal() != "c0" || rows[0].Get("faults").IntVal() != 5 {
		t.Errorf("row = %v", rows[0])
	}
}

func TestNaturalJoinErrors(t *testing.T) {
	dict := semantics.DefaultDictionary()
	nj := &NaturalJoin{}
	// No shared dimensions.
	a := semantics.NewSchema("x", semantics.IDDomain("cpu"))
	b := semantics.NewSchema("y", semantics.IDDomain("rack"))
	if _, err := nj.DeriveSchema(a, b, dict); err == nil {
		t.Error("no shared dims should fail")
	}
	// Ambiguous dimension (two columns on one side).
	c := semantics.NewSchema("x1", semantics.IDDomain("cpu"), "x2", semantics.IDDomain("cpu"))
	if _, err := nj.DeriveSchema(c, a, dict); err == nil {
		t.Error("ambiguous dimension should fail")
	}
	// Structural mismatch: timespan vs datetime is not exact-matchable.
	d := semantics.NewSchema("span", semantics.SpanDomain())
	e := semantics.NewSchema("t", semantics.TimeDomain())
	if _, err := nj.DeriveSchema(d, e, dict); err == nil {
		t.Error("timespan vs datetime should fail")
	}
	// List vs scalar is not exact-matchable.
	f := semantics.NewSchema("nodes", semantics.IDListDomain("compute_node"))
	g := semantics.NewSchema("node", semantics.IDDomain("compute_node"))
	if _, err := nj.DeriveSchema(f, g, dict); err == nil {
		t.Error("list vs scalar should fail")
	}
	// Conflicting non-join column entries.
	h := semantics.NewSchema("node", semantics.IDDomain("compute_node"),
		"v", semantics.ValueEntry("power", "watts"))
	i := semantics.NewSchema("node", semantics.IDDomain("compute_node"),
		"v", semantics.ValueEntry("power", "kilowatts"))
	if _, err := nj.DeriveSchema(h, i, dict); err == nil {
		t.Error("conflicting column entries should fail")
	}
}

func interpSchemas() (left, right semantics.Schema) {
	left = semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"t", semantics.TimeDomain(),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	right = semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"ts", semantics.TimeDomain(),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
		"status", semantics.ValueEntry("identity", "identifier"),
	)
	return
}

func TestInterpolationJoinBracketsAndInterpolates(t *testing.T) {
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	ls, rs := interpSchemas()
	lrows := []value.Row{
		value.NewRow("node", value.Str("n1"), "t", value.TimeNanos(10e9), "load", value.Float(0.5)),
		value.NewRow("node", value.Str("n1"), "t", value.TimeNanos(100e9), "load", value.Float(0.9)),
		value.NewRow("node", value.Str("n2"), "t", value.TimeNanos(10e9), "load", value.Float(0.1)),
	}
	rrows := []value.Row{
		value.NewRow("node_id", value.Str("n1"), "ts", value.TimeNanos(8e9), "temp", value.Float(60), "status", value.Str("ok")),
		value.NewRow("node_id", value.Str("n1"), "ts", value.TimeNanos(12e9), "temp", value.Float(70), "status", value.Str("warn")),
		value.NewRow("node_id", value.Str("n2"), "ts", value.TimeNanos(11e9), "temp", value.Float(40), "status", value.Str("ok")),
	}
	left := dataset.FromRows(ctx, "loads", lrows, ls, 2)
	right := dataset.FromRows(ctx, "temps", rrows, rs, 2)

	ij := &InterpolationJoin{WindowSeconds: 5}
	out, err := ij.Apply(left, right, dict)
	if err != nil {
		t.Fatal(err)
	}
	sch := out.Schema()
	for _, dropped := range []string{"node_id", "ts"} {
		if _, ok := sch[dropped]; ok {
			t.Errorf("column %q should be dropped", dropped)
		}
	}
	rows := out.SortedBy("node", "t")
	// n1@10: bracketed by 8 (60,ok) and 12 (70,warn): lerp t=0.5 -> 65;
	// status nearest -> tie between 8 and 12 at distance 2: nearest keeps
	// the before row on ties (dt equal, before wins because after is not
	// strictly closer).
	// n1@100: no right row within 5s -> dropped.
	// n2@10: only 11 within window -> temp 40.
	if len(rows) != 2 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if v := rows[0].Get("temp").FloatVal(); math.Abs(v-65) > 1e-9 {
		t.Errorf("interpolated temp = %v, want 65", v)
	}
	if s := rows[0].Get("status").StrVal(); s != "ok" {
		t.Errorf("nearest status = %q", s)
	}
	if v := rows[1].Get("temp").FloatVal(); math.Abs(v-40) > 1e-9 {
		t.Errorf("single-sided temp = %v, want 40", v)
	}
	if err := out.Validate(dict); err != nil {
		t.Errorf("result invalid: %v", err)
	}
}

func TestInterpolationJoinResidualDomains(t *testing.T) {
	// The right side has an unshared domain (location): each left row joins
	// to each location's interpolated reading independently — the Figure 5
	// shape where rack heat has top/mid/bottom locations.
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	ls := semantics.NewSchema(
		"rack", semantics.IDDomain("rack"),
		"t", semantics.TimeDomain(),
		"job", semantics.ValueEntry("application", "identifier"),
	)
	rs := semantics.NewSchema(
		"rack_id", semantics.IDDomain("rack"),
		"ts", semantics.TimeDomain(),
		"location", semantics.IDDomain("rack_location"),
		"heat", semantics.ValueEntry("temperature_difference", "delta_celsius"),
	)
	lrows := []value.Row{
		value.NewRow("rack", value.Str("r17"), "t", value.TimeNanos(60e9), "job", value.Str("AMG")),
	}
	var rrows []value.Row
	for _, loc := range []string{"top", "mid", "bot"} {
		rrows = append(rrows,
			value.NewRow("rack_id", value.Str("r17"), "ts", value.TimeNanos(0), "location", value.Str(loc), "heat", value.Float(10)),
			value.NewRow("rack_id", value.Str("r17"), "ts", value.TimeNanos(120e9), "location", value.Str(loc), "heat", value.Float(20)),
			value.NewRow("rack_id", value.Str("r18"), "ts", value.TimeNanos(60e9), "location", value.Str(loc), "heat", value.Float(99)),
		)
	}
	left := dataset.FromRows(ctx, "jobs", lrows, ls, 1)
	right := dataset.FromRows(ctx, "heat", rrows, rs, 2)
	out, err := (&InterpolationJoin{WindowSeconds: 120}).Apply(left, right, dict)
	if err != nil {
		t.Fatal(err)
	}
	rows := out.SortedBy("location")
	if len(rows) != 3 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	for _, r := range rows {
		if v := r.Get("heat").FloatVal(); math.Abs(v-15) > 1e-9 {
			t.Errorf("heat = %v, want 15 (interpolated midpoint)", v)
		}
		if r.Get("rack").StrVal() != "r17" {
			t.Errorf("rack exact match violated: %v", r)
		}
	}
}

func TestInterpolationJoinErrors(t *testing.T) {
	dict := semantics.DefaultDictionary()
	ls, rs := interpSchemas()
	if _, err := (&InterpolationJoin{WindowSeconds: 0}).DeriveSchema(ls, rs, dict); err == nil {
		t.Error("zero window should fail")
	}
	// No time dimension shared.
	a := semantics.NewSchema("node", semantics.IDDomain("compute_node"))
	b := semantics.NewSchema("node_id", semantics.IDDomain("compute_node"))
	if _, err := (&InterpolationJoin{WindowSeconds: 1}).DeriveSchema(a, b, dict); err == nil {
		t.Error("no continuous shared dim should fail")
	}
	// No shared dims at all.
	c := semantics.NewSchema("x", semantics.IDDomain("rack"))
	if _, err := (&InterpolationJoin{WindowSeconds: 1}).DeriveSchema(a, c, dict); err == nil {
		t.Error("no shared dims should fail")
	}
}

// naiveWindowPairs computes, by brute force, the set of (left,right) index
// pairs within the window — the reference for the dual-binning algorithm.
func naiveWindowPairs(lts, rts []int64, w int64) map[[2]int]bool {
	out := map[[2]int]bool{}
	for i, lt := range lts {
		for j, rt := range rts {
			d := lt - rt
			if d < 0 {
				d = -d
			}
			if d <= w {
				out[[2]int{i, j}] = true
			}
		}
	}
	return out
}

func TestInterpJoinBinningFindsAllPairsExactlyOnce(t *testing.T) {
	// Property: the binning inside the interpolation join — the columnar
	// kernel's single binning with the right side replicated, and the row
	// reference's dual binning — discovers every in-window pair exactly
	// once. Each right row carries a unique residual domain value, so every
	// in-window pair becomes exactly one output row; the set of
	// (left, right) pairs must equal the naive reference.
	for _, mk := range []func(*rdd.Context, string, []value.Row, semantics.Schema, int) *dataset.Dataset{
		dataset.FromRows, dataset.FromRowsColumnar,
	} {
		checkBinningFindsAllPairs(t, mk)
	}
}

func checkBinningFindsAllPairs(t *testing.T, mk func(*rdd.Context, string, []value.Row, semantics.Schema, int) *dataset.Dataset) {
	rng := rand.New(rand.NewSource(42))
	dict := semantics.DefaultDictionary()
	for trial := 0; trial < 20; trial++ {
		nl, nr := 1+rng.Intn(30), 1+rng.Intn(30)
		w := int64(1+rng.Intn(20)) * 1e9
		lts := make([]int64, nl)
		rts := make([]int64, nr)
		for i := range lts {
			lts[i] = int64(rng.Intn(200)) * 1e9
		}
		for j := range rts {
			rts[j] = int64(rng.Intn(200)) * 1e9
		}
		want := naiveWindowPairs(lts, rts, w)

		// Each right row gets a unique residual domain value, so every
		// candidate pair becomes exactly one output row.
		ctx := rdd.NewContext(2)
		ls := semantics.NewSchema(
			"t", semantics.TimeDomain(),
			"lid", semantics.ValueEntry("identity", "identifier"),
		)
		rs := semantics.NewSchema(
			"ts", semantics.TimeDomain(),
			"rid", semantics.IDDomain("cluster"), // residual domain
		)
		lrows := make([]value.Row, nl)
		for i := range lrows {
			lrows[i] = value.NewRow("t", value.TimeNanos(lts[i]), "lid", value.Str(fmt.Sprintf("L%d", i)))
		}
		rrows := make([]value.Row, nr)
		for j := range rrows {
			rrows[j] = value.NewRow("ts", value.TimeNanos(rts[j]), "rid", value.Str(fmt.Sprintf("R%d", j)))
		}
		left := mk(ctx, "l", lrows, ls, 3)
		right := mk(ctx, "r", rrows, rs, 3)
		out, err := (&InterpolationJoin{WindowSeconds: float64(w) / 1e9}).Apply(left, right, dict)
		if err != nil {
			t.Fatal(err)
		}
		got := map[[2]int]bool{}
		for _, r := range out.Collect() {
			var li, rj int
			fmt.Sscanf(r.Get("lid").StrVal(), "L%d", &li)
			fmt.Sscanf(r.Get("rid").StrVal(), "R%d", &rj)
			key := [2]int{li, rj}
			if got[key] {
				t.Fatalf("trial %d: duplicate output pair %v", trial, key)
			}
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (w=%ds): got %d pairs, want %d", trial, w/1e9, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing pair %v", trial, k)
			}
		}
	}
}

func TestCombinationRegistryRoundTrip(t *testing.T) {
	nj, err := NewCombination("natural_join", map[string]any{})
	if err != nil || nj.Name() != "natural_join" {
		t.Errorf("natural_join: %v", err)
	}
	ij, err := NewCombination("interpolation_join", map[string]any{"window_seconds": 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := ij.Params()["window_seconds"]; got != 2.5 {
		t.Errorf("window = %v", got)
	}
	if _, err := NewCombination("bogus", nil); err == nil {
		t.Error("unknown combination should fail")
	}
	if _, err := NewTransformation("bogus", nil); err == nil {
		t.Error("unknown transformation should fail")
	}
	if _, err := NewCombination("interpolation_join", map[string]any{}); err == nil {
		t.Error("missing window should fail")
	}
}

func TestRegistryNamesListed(t *testing.T) {
	tn := TransformationNames()
	cn := CombinationNames()
	wantT := []string{"convert_units", "derive_active_frequency", "derive_heat", "derive_rate", "derive_ratio", "explode_continuous", "explode_discrete"}
	if !sort.StringsAreSorted(tn) || !sort.StringsAreSorted(cn) {
		t.Error("registry name lists should be sorted")
	}
	has := func(xs []string, w string) bool {
		for _, x := range xs {
			if x == w {
				return true
			}
		}
		return false
	}
	for _, w := range wantT {
		if !has(tn, w) {
			t.Errorf("TransformationNames missing %q: %v", w, tn)
		}
	}
	for _, w := range []string{"natural_join", "interpolation_join"} {
		if !has(cn, w) {
			t.Errorf("CombinationNames missing %q: %v", w, cn)
		}
	}
}
