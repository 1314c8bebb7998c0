package stats_test

import (
	"context"
	"testing"

	"scrubjay/internal/bench"
	"scrubjay/internal/dataset"
	"scrubjay/internal/engine"
	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/value"
)

// execFig5Mini solves and executes the miniature Figure-5 pipeline under a
// tracer and returns the plan plus the finished trace root.
func execFig5Mini(t *testing.T) (*pipeline.Plan, *obs.SpanRecord, map[string]int64) {
	t.Helper()
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	schemas := map[string]semantics.Schema{
		"job_queue_log": semantics.NewSchema(
			"job_id", semantics.IDDomain("job"),
			"job_name", semantics.ValueEntry("application", "identifier"),
			"elapsed", semantics.ValueEntry("time_duration", "seconds"),
			"nodelist", semantics.IDListDomain("compute_node"),
			"timespan", semantics.SpanDomain(),
		),
		"node_layout": semantics.NewSchema(
			"node", semantics.IDDomain("compute_node"),
			"rack", semantics.IDDomain("rack"),
		),
		"rack_temperatures": semantics.NewSchema(
			"rack", semantics.IDDomain("rack"),
			"location", semantics.IDDomain("rack_location"),
			"aisle", semantics.IDDomain("rack_aisle"),
			"time", semantics.TimeDomain().WithCadence(120),
			"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
		),
	}
	e := engine.New(dict, schemas, engine.DefaultOptions())
	plan, err := e.Solve(context.Background(), engine.Query{
		Domains: []string{"job", "rack"},
		Values:  []engine.QueryValue{{Dimension: "application"}, {Dimension: "temperature_difference"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []value.Row{value.NewRow(
		"job_id", value.Str("j1"), "job_name", value.Str("AMG"),
		"elapsed", value.Float(600), "nodelist", value.StrList("n1", "n2"),
		"timespan", value.Span(0, 600e9),
	)}
	layout := []value.Row{
		value.NewRow("node", value.Str("n1"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n2"), "rack", value.Str("r17")),
	}
	var temps []value.Row
	for ts := int64(0); ts <= 600; ts += 120 {
		for _, loc := range []string{"top", "mid"} {
			temps = append(temps,
				value.NewRow("rack", value.Str("r17"), "location", value.Str(loc),
					"aisle", value.Str("hot"), "time", value.TimeNanos(ts*1e9), "temp", value.Float(31)),
				value.NewRow("rack", value.Str("r17"), "location", value.Str(loc),
					"aisle", value.Str("cold"), "time", value.TimeNanos(ts*1e9), "temp", value.Float(18)),
			)
		}
	}
	cat := pipeline.Catalog{
		"job_queue_log":     dataset.FromRows(ctx, "job_queue_log", jobs, schemas["job_queue_log"], 2),
		"node_layout":       dataset.FromRows(ctx, "node_layout", layout, schemas["node_layout"], 1),
		"rack_temperatures": dataset.FromRows(ctx, "rack_temperatures", temps, schemas["rack_temperatures"], 2),
	}
	tr := obs.NewTracer("recorder-test", nil)
	qspan := tr.Start(obs.KindQuery, "query")
	exec := qspan.Child(obs.KindExec, "execute")
	ctx.SetSpan(exec)
	out, err := pipeline.Execute(context.Background(), ctx, plan, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out.Collect()
	exec.End()
	qspan.End()
	sourceRows := map[string]int64{
		"job_queue_log":     int64(len(jobs)),
		"node_layout":       int64(len(layout)),
		"rack_temperatures": int64(len(temps)),
	}
	return plan, tr.Artifact().Root, sourceRows
}

func TestActualsFromExecutedTrace(t *testing.T) {
	plan, root, sourceRows := execFig5Mini(t)
	actuals := stats.Actuals(plan, root, sourceRows)
	if actuals == nil {
		t.Fatal("Actuals did not match the trace against the plan")
	}
	byName := map[string]stats.StepActual{}
	for _, a := range actuals {
		byName[a.Derivation] = a
	}
	// The trace materializes the natural join's output while preparing the
	// interpolation join, so its row counts are fully observed.
	nj, ok := byName["natural_join"]
	if !ok {
		t.Fatal("no natural_join actual")
	}
	if nj.RowsOut <= 0 {
		t.Errorf("natural_join RowsOut = %d, want observed > 0", nj.RowsOut)
	}
	if nj.RowsIn <= 0 || nj.RowsIn >= nj.RowsOut*10 {
		t.Errorf("natural_join RowsIn = %d (out %d), want plausible observed count", nj.RowsIn, nj.RowsOut)
	}
	// The final interpolation join's output is the collect stage.
	ij, ok := byName["interpolation_join"]
	if !ok {
		t.Fatal("no interpolation_join actual")
	}
	if ij.RowsOut <= 0 || ij.RowsIn <= 0 {
		t.Errorf("interpolation_join rows in/out = %d/%d, want observed", ij.RowsIn, ij.RowsOut)
	}
	// derive_heat is row-level observed too: temps in, grouped heat out.
	dh, ok := byName["derive_heat"]
	if !ok {
		t.Fatal("no derive_heat actual")
	}
	if dh.RowsIn != sourceRows["rack_temperatures"] {
		t.Errorf("derive_heat RowsIn = %d, want %d", dh.RowsIn, sourceRows["rack_temperatures"])
	}
	// Keys carry the input source sets.
	if ij.Key != "interpolation_join|job_queue_log+node_layout|rack_temperatures" {
		t.Errorf("interpolation_join key = %q", ij.Key)
	}
}

func TestRecorderFeedsStore(t *testing.T) {
	plan, root, sourceRows := execFig5Mini(t)
	store := stats.NewStore()
	n := stats.Recorder{Store: store}.Record(plan, root, sourceRows)
	if n == 0 {
		t.Fatal("recorder recorded nothing")
	}
	d, ok := store.Derivation("natural_join")
	if !ok || d.Observations == 0 {
		t.Fatalf("store has no natural_join observations: %+v ok=%v", d, ok)
	}
	if sel, ok := d.Selectivity(); !ok || sel <= 0 {
		t.Errorf("natural_join selectivity = %v ok=%v", sel, ok)
	}
	if store.Epoch() == 0 {
		t.Error("recording new derivations should move the epoch")
	}
}

// fig5Actuals executes the Fig-5 plan over the case-study catalog (4 racks
// × 6 nodes, 1800 s, 4 partitions) built by mk and returns its step actuals.
func fig5Actuals(t *testing.T, mk func(rc *rdd.Context, name string, rows []value.Row, schema semantics.Schema, parts int) *dataset.Dataset) []stats.StepActual {
	t.Helper()
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks, cfg.NodesPerRack, cfg.AMGRack = 4, 6, 2
	cfg.DAT1DurationSec = 1800
	cfg.Partitions = 4
	srcCat, schemas, _ := bench.DAT1Catalog(rdd.NewContext(2), cfg)
	dict := semantics.DefaultDictionary()
	plan, err := engine.New(dict, schemas, engine.DefaultOptions()).Solve(context.Background(), bench.Fig5Query())
	if err != nil {
		t.Fatal(err)
	}
	rc := rdd.NewContext(2)
	cat := pipeline.Catalog{}
	for name, ds := range srcCat {
		cat[name] = mk(rc, name, ds.Collect(), schemas[name], ds.Rows().NumPartitions())
	}
	tr := obs.NewTracer("recorder-test", nil)
	qspan := tr.Start(obs.KindQuery, "query")
	exec := qspan.Child(obs.KindExec, "execute")
	rc.SetSpan(exec)
	out, err := pipeline.Execute(context.Background(), rc, plan, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out.Collect()
	exec.End()
	qspan.End()
	actuals := stats.Actuals(plan, tr.Artifact().Root, nil)
	if actuals == nil {
		t.Fatal("Actuals did not match the trace against the plan")
	}
	return actuals
}

// TestActualsColumnarCatalog: a catalog built columnar observes the same
// per-step row counts as a row catalog. Traced columnar stages count the
// rows in each batch, so the join inputs are observed, not just outputs.
func TestActualsColumnarCatalog(t *testing.T) {
	row := fig5Actuals(t, dataset.FromRows)
	col := fig5Actuals(t, dataset.FromRowsColumnar)
	if len(row) != len(col) {
		t.Fatalf("row catalog %d steps, columnar catalog %d", len(row), len(col))
	}
	for i := range row {
		r, c := row[i], col[i]
		if r.Derivation != c.Derivation || r.Key != c.Key || r.RowsIn != c.RowsIn || r.RowsOut != c.RowsOut {
			t.Errorf("step %d: row catalog %s in=%d out=%d, columnar %s in=%d out=%d",
				i, r.Derivation, r.RowsIn, r.RowsOut, c.Derivation, c.RowsIn, c.RowsOut)
		}
	}
	byName := map[string]stats.StepActual{}
	for _, a := range col {
		byName[a.Derivation] = a
	}
	if a := byName["explode_continuous"]; a.RowsOut != 249 {
		t.Errorf("explode_continuous out = %d, want 249", a.RowsOut)
	}
	// Row-by-row counts: the natural join emits 249 rows, which meet 180
	// derive_heat rows in the interpolation join. The join's exchanges
	// count each input row once, however many bins it is routed to.
	if a := byName["natural_join"]; a.RowsIn != 273 || a.RowsOut != 249 {
		t.Errorf("natural_join in/out = %d/%d, want 273/249", a.RowsIn, a.RowsOut)
	}
	if a := byName["interpolation_join"]; a.RowsIn != 429 || a.RowsOut != 747 {
		t.Errorf("interpolation_join in/out = %d/%d, want 429/747", a.RowsIn, a.RowsOut)
	}
}

// TestActualsCacheHit builds a synthetic trace where the whole subtree was
// served from the derivation cache: the cache-hit step stands in for its
// inputs, and the recorder must not observe it.
func TestActualsCacheHit(t *testing.T) {
	src := pipeline.SourceNode("a")
	plan := &pipeline.Plan{Root: &pipeline.Node{
		Kind: pipeline.KindTransform, Derivation: "derive_heat",
		Inputs: []*pipeline.Node{{
			Kind: pipeline.KindTransform, Derivation: "explode_discrete",
			Inputs: []*pipeline.Node{src},
		}},
	}}
	root := &obs.SpanRecord{
		Kind: obs.KindExec, Name: "execute",
		Children: []*obs.SpanRecord{{
			Kind: obs.KindStep, Name: "derive_heat",
			Attrs: map[string]any{obs.AttrCacheHit: true},
		}},
	}
	actuals := stats.Actuals(plan, root, nil)
	if len(actuals) != 1 || !actuals[0].CacheHit {
		t.Fatalf("actuals = %+v, want one cache-hit entry", actuals)
	}
	store := stats.NewStore()
	if n := (stats.Recorder{Store: store}).Record(plan, root, nil); n != 0 {
		t.Errorf("cache hits must not be observed, recorded %d", n)
	}
}

// TestActualsMismatchedTrace: a trace whose steps do not line up with the
// plan yields nothing rather than misattributed observations.
func TestActualsMismatchedTrace(t *testing.T) {
	plan := &pipeline.Plan{Root: &pipeline.Node{
		Kind: pipeline.KindTransform, Derivation: "derive_heat",
		Inputs: []*pipeline.Node{pipeline.SourceNode("a")},
	}}
	root := &obs.SpanRecord{
		Kind: obs.KindExec, Name: "execute",
		Children: []*obs.SpanRecord{{Kind: obs.KindStep, Name: "derive_rate"}},
	}
	if got := stats.Actuals(plan, root, nil); got != nil {
		t.Errorf("mismatched trace produced actuals: %+v", got)
	}
}
