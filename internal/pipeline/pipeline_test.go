package pipeline

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"scrubjay/internal/cache"
	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
	"scrubjay/internal/wrappers"
)

func testCatalog(ctx *rdd.Context) (Catalog, map[string]semantics.Schema) {
	jobsSchema := semantics.NewSchema(
		"job_id", semantics.IDDomain("job"),
		"nodelist", semantics.IDListDomain("compute_node"),
		"job_name", semantics.ValueEntry("application", "identifier"),
	)
	layoutSchema := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"rack", semantics.IDDomain("rack"),
	)
	jobs := dataset.FromRows(ctx, "jobs", []value.Row{
		value.NewRow("job_id", value.Str("j1"), "nodelist", value.StrList("n1", "n2"), "job_name", value.Str("AMG")),
		value.NewRow("job_id", value.Str("j2"), "nodelist", value.StrList("n3"), "job_name", value.Str("mg.C")),
	}, jobsSchema, 2)
	layout := dataset.FromRows(ctx, "layout", []value.Row{
		value.NewRow("node", value.Str("n1"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n2"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n3"), "rack", value.Str("r18")),
	}, layoutSchema, 1)
	return Catalog{"jobs": jobs, "layout": layout},
		map[string]semantics.Schema{"jobs": jobsSchema, "layout": layoutSchema}
}

func testPlan() *Plan {
	exploded := TransformNode(&derive.ExplodeDiscrete{Column: "nodelist"}, SourceNode("jobs"))
	joined := CombineNode(&derive.NaturalJoin{}, exploded, SourceNode("layout"))
	return &Plan{Root: joined}
}

func TestExecutePlan(t *testing.T) {
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	cat, _ := testCatalog(ctx)
	out, err := Execute(context.Background(), ctx, testPlan(), cat, dict, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := out.SortedBy("nodelist_exploded")
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Get("rack").StrVal() != "r17" || rows[2].Get("rack").StrVal() != "r18" {
		t.Errorf("join wrong: %v", rows)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := testPlan()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hash() != p2.Hash() {
		t.Error("hash changed across JSON round trip")
	}
	// The decoded plan executes identically.
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	cat, _ := testCatalog(ctx)
	a, err := Execute(context.Background(), ctx, p, cat, dict, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(context.Background(), ctx, p2, cat, dict, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.SortedBy("nodelist_exploded"), b.SortedBy("nodelist_exploded")
	if len(ra) != len(rb) {
		t.Fatal("row counts differ")
	}
	for i := range ra {
		if !ra[i].Equal(rb[i]) {
			t.Errorf("row %d differs", i)
		}
	}
}

func TestExecuteCanceled(t *testing.T) {
	dict := semantics.DefaultDictionary()
	goCtx, cancel := context.WithCancel(context.Background())

	// A pre-cancelled context fails before touching any data.
	ctx := rdd.NewContext(2).WithGoContext(goCtx)
	cat, _ := testCatalog(ctx)
	cancel()
	if _, err := Execute(goCtx, ctx, testPlan(), cat, dict, ExecOptions{}); err == nil {
		t.Fatal("cancelled Execute should fail")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Cancellation mid-derivation surfaces as an error, not a panic: the
	// catalog datasets are bound to the cancelled Go context, so the rdd
	// actions inside the join abort and Execute recovers them.
	goCtx2, cancel2 := context.WithCancel(context.Background())
	ctx2 := rdd.NewContext(2).WithGoContext(goCtx2)
	cat2, _ := testCatalog(ctx2)
	cancel2()
	if _, err := Execute(context.Background(), ctx2, testPlan(), cat2, dict, ExecOptions{}); err == nil {
		t.Fatal("Execute over cancelled rdd context should fail")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestDecodeRejectsBadPlans(t *testing.T) {
	bad := []string{
		`{`,
		`{}`,
		`{"root":{"kind":"wat"}}`,
		`{"root":{"kind":"source"}}`,
		`{"root":{"kind":"transform","derivation":"x"}}`,
		`{"root":{"kind":"combine","derivation":"x","inputs":[{"kind":"source","dataset":"a"}]}}`,
		`{"root":{"kind":"source","dataset":"a","inputs":[{"kind":"source","dataset":"b"}]}}`,
	}
	for _, s := range bad {
		if _, err := Decode([]byte(s)); err == nil {
			t.Errorf("Decode(%s) should fail", s)
		}
	}
}

func TestHashDistinguishesPlans(t *testing.T) {
	p1 := testPlan()
	p2 := &Plan{Root: CombineNode(&derive.NaturalJoin{},
		TransformNode(&derive.ExplodeDiscrete{Column: "nodelist", As: "other"}, SourceNode("jobs")),
		SourceNode("layout"))}
	if p1.Hash() == p2.Hash() {
		t.Error("different params should hash differently")
	}
	p3 := &Plan{Root: SourceNode("jobs")}
	p4 := &Plan{Root: SourceNode("layout")}
	if p3.Hash() == p4.Hash() {
		t.Error("different sources should hash differently")
	}
	if p1.Hash() != testPlan().Hash() {
		t.Error("identical plans should hash identically")
	}
}

func TestPlanStringAndSteps(t *testing.T) {
	p := testPlan()
	s := p.String()
	for _, want := range []string{"combine natural_join", "transform explode_discrete", "source jobs", "source layout"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	steps := p.Steps()
	want := []string{"source:jobs", "explode_discrete", "source:layout", "natural_join"}
	if len(steps) != len(want) {
		t.Fatalf("Steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("Steps[%d] = %q, want %q", i, steps[i], want[i])
		}
	}
}

func TestDeriveSchemaMatchesExecution(t *testing.T) {
	ctx := rdd.NewContext(1)
	dict := semantics.DefaultDictionary()
	cat, schemas := testCatalog(ctx)
	p := testPlan()
	derived, err := p.DeriveSchema(schemas, dict)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Execute(context.Background(), ctx, p, cat, dict, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !derived.Equal(out.Schema()) {
		t.Errorf("schema-only derivation %v != executed schema %v", derived, out.Schema())
	}
}

func TestExecuteErrors(t *testing.T) {
	ctx := rdd.NewContext(1)
	dict := semantics.DefaultDictionary()
	cat, _ := testCatalog(ctx)
	// Unknown source.
	if _, err := Execute(context.Background(), ctx, &Plan{Root: SourceNode("nope")}, cat, dict, ExecOptions{}); err == nil {
		t.Error("unknown source should fail")
	}
	// Unknown derivation.
	p := &Plan{Root: &Node{Kind: KindTransform, Derivation: "bogus", Inputs: []*Node{SourceNode("jobs")}}}
	if _, err := Execute(context.Background(), ctx, p, cat, dict, ExecOptions{}); err == nil {
		t.Error("unknown derivation should fail")
	}
	// Derivation that does not apply.
	p2 := &Plan{Root: TransformNode(&derive.ExplodeDiscrete{Column: "rack"}, SourceNode("layout"))}
	if _, err := Execute(context.Background(), ctx, p2, cat, dict, ExecOptions{}); err == nil {
		t.Error("inapplicable derivation should fail")
	}
}

func TestExecuteWithCache(t *testing.T) {
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	cat, _ := testCatalog(ctx)
	c, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := testPlan()
	out1, err := Execute(context.Background(), ctx, p, cat, dict, ExecOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	// Both the transform and the combine nodes are cached.
	if c.Len() != 2 {
		t.Errorf("cache entries = %d, want 2", c.Len())
	}
	if key, err := ResultKey(ctx, p.Root, cat); err != nil || !c.Contains(key) {
		t.Errorf("root result should be cached (%v)", err)
	}
	out2, err := Execute(context.Background(), ctx, p, cat, dict, ExecOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := out1.SortedBy("nodelist_exploded"), out2.SortedBy("nodelist_exploded")
	if len(r1) != len(r2) {
		t.Fatal("cached result differs in size")
	}
	for i := range r1 {
		if !r1[i].Equal(r2[i]) {
			t.Errorf("cached row %d differs: %v vs %v", i, r1[i], r2[i])
		}
	}
	// A shared prefix reuses the cached transform result.
	p3 := &Plan{Root: TransformNode(&derive.ExplodeDiscrete{Column: "nodelist"}, SourceNode("jobs"))}
	if key, err := ResultKey(ctx, p3.Root, cat); err != nil || !c.Contains(key) {
		t.Errorf("shared subtree should already be cached (%v)", err)
	}
}

func TestLoadNodeExecution(t *testing.T) {
	ctx := rdd.NewContext(1)
	dict := semantics.DefaultDictionary()
	cat, _ := testCatalog(ctx)

	// Unwrap the layout dataset to CSV, then execute a plan that loads it.
	path := filepath.Join(t.TempDir(), "layout.csv")
	if err := wrappers.Write(cat["layout"], wrappers.Source{Format: "csv", Path: path}); err != nil {
		t.Fatal(err)
	}
	p := &Plan{Root: LoadNode(wrappers.Source{Format: "csv", Path: path, Name: "layout"})}
	out, err := Execute(context.Background(), ctx, p, Catalog{}, dict, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Count() != 3 {
		t.Errorf("loaded count = %d", out.Count())
	}
	// The JSON round trip preserves the load spec.
	data, _ := p.Encode()
	p2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := Execute(context.Background(), ctx, p2, Catalog{}, dict, ExecOptions{})
	if err != nil || out2.Count() != 3 {
		t.Errorf("decoded load plan failed: %v", err)
	}
}
