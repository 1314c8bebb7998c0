package dataset

import (
	"strings"
	"testing"

	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func tempSchema() semantics.Schema {
	return semantics.NewSchema(
		"timestamp", semantics.TimeDomain(),
		"node_id", semantics.IDDomain("compute_node"),
		"node_temp", semantics.ValueEntry("temperature", "degrees_celsius"),
	)
}

func tempRows() []value.Row {
	return []value.Row{
		value.NewRow("timestamp", value.TimeNanos(1e9), "node_id", value.Str("n1"), "node_temp", value.Float(60)),
		value.NewRow("timestamp", value.TimeNanos(2e9), "node_id", value.Str("n2"), "node_temp", value.Float(65)),
		value.NewRow("timestamp", value.TimeNanos(3e9), "node_id", value.Str("n1"), "node_temp", value.Float(70)),
	}
}

func TestFromRowsBasics(t *testing.T) {
	ctx := rdd.NewContext(2)
	d := FromRows(ctx, "temps", tempRows(), tempSchema(), 2)
	if d.Name() != "temps" {
		t.Errorf("Name = %q", d.Name())
	}
	if d.Count() != 3 {
		t.Errorf("Count = %d", d.Count())
	}
	if d.Context() != ctx {
		t.Error("Context identity")
	}
	if len(d.Schema()) != 3 {
		t.Errorf("schema size = %d", len(d.Schema()))
	}
	d2 := d.WithName("renamed")
	if d2.Name() != "renamed" || d2.Count() != 3 {
		t.Error("WithName")
	}
}

func TestSelect(t *testing.T) {
	ctx := rdd.NewContext(2)
	d := FromRows(ctx, "temps", tempRows(), tempSchema(), 2)
	sel, err := d.Select("node_id", "node_temp")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Schema()) != 2 {
		t.Errorf("selected schema = %v", sel.Schema())
	}
	for _, r := range sel.Collect() {
		if r.Has("timestamp") {
			t.Errorf("row still has timestamp: %v", r)
		}
	}
	if _, err := d.Select("nope"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestSortedBy(t *testing.T) {
	ctx := rdd.NewContext(2)
	d := FromRows(ctx, "temps", tempRows(), tempSchema(), 3)
	rows := d.SortedBy("node_id", "timestamp")
	if rows[0].Get("node_id").StrVal() != "n1" || rows[2].Get("node_id").StrVal() != "n2" {
		t.Errorf("sorted order wrong: %v", rows)
	}
	if rows[0].Get("timestamp").TimeNanosVal() > rows[1].Get("timestamp").TimeNanosVal() {
		t.Error("secondary sort wrong")
	}
}

func TestValidate(t *testing.T) {
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	good := FromRows(ctx, "temps", tempRows(), tempSchema(), 2)
	if err := good.Validate(dict); err != nil {
		t.Errorf("valid dataset: %v", err)
	}

	// Row with a column not in the schema.
	extra := append(tempRows(), value.NewRow("mystery", value.Int(1)))
	bad1 := FromRows(ctx, "bad1", extra, tempSchema(), 2)
	if err := bad1.Validate(dict); err == nil {
		t.Error("extra column should fail validation")
	}

	// Wrong kind for datetime units.
	wrongKind := []value.Row{value.NewRow("timestamp", value.Str("notatime"))}
	bad2 := FromRows(ctx, "bad2", wrongKind, tempSchema(), 1)
	if err := bad2.Validate(dict); err == nil {
		t.Error("wrong kind should fail validation")
	}

	// Invalid schema.
	bad3 := FromRows(ctx, "bad3", nil, semantics.NewSchema("x", semantics.DomainEntry("bogus", "identifier")), 1)
	if err := bad3.Validate(dict); err == nil {
		t.Error("invalid schema should fail validation")
	}

	// Nulls are allowed anywhere.
	nulls := []value.Row{value.NewRow("timestamp", value.Null())}
	ok := FromRows(ctx, "nulls", nulls, tempSchema(), 1)
	if err := ok.Validate(dict); err != nil {
		t.Errorf("nulls should validate: %v", err)
	}
}

func TestKindForUnits(t *testing.T) {
	if k, ok := KindForUnits("datetime"); !ok || k != value.KindTime {
		t.Error("datetime")
	}
	if k, ok := KindForUnits("timespan"); !ok || k != value.KindSpan {
		t.Error("timespan")
	}
	if k, ok := KindForUnits("list<identifier>"); !ok || k != value.KindList {
		t.Error("list")
	}
	if _, ok := KindForUnits("watts"); ok {
		t.Error("watts should be unconstrained")
	}
}

func TestShow(t *testing.T) {
	ctx := rdd.NewContext(1)
	d := FromRows(ctx, "temps", tempRows(), tempSchema(), 1)
	out := d.Show(2)
	if !strings.Contains(out, "node_temp") || !strings.Contains(out, "n1") {
		t.Errorf("Show output missing content:\n%s", out)
	}
	if !strings.Contains(out, "2 shown") {
		t.Errorf("Show should report row count:\n%s", out)
	}
}

func TestCache(t *testing.T) {
	ctx := rdd.NewContext(1)
	d := FromRows(ctx, "temps", tempRows(), tempSchema(), 1).Cache()
	if d.Count() != 3 || d.Count() != 3 {
		t.Error("cached dataset count")
	}
}

// TestFromRowsColumnarPivotsOnce: a columnar dataset built from rows keeps
// the frames its first action pivots, so a second Frames() reads the same
// frames instead of pivoting every partition again.
func TestFromRowsColumnarPivotsOnce(t *testing.T) {
	d := FromRowsColumnar(rdd.NewContext(2), "temps", tempRows(), tempSchema(), 2)
	first, second := d.Frames().Collect(), d.Frames().Collect()
	if len(first) != 2 || len(second) != len(first) {
		t.Fatalf("collected %d then %d frames, want 2 both times", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("partition %d pivoted twice: two Frames().Collect() calls returned different frames", i)
		}
	}
}
