package engine

import (
	"context"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// fig5Schemas is the first DAT catalog (§7.1-7.2): job queue log, node
// layout, rack temperatures.
func fig5Schemas() map[string]semantics.Schema {
	return map[string]semantics.Schema{
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
}

// fig7Schemas is the second DAT catalog (§7.3): PAPI CPU counters, IPMI
// motherboard counters, static CPU specifications.
func fig7Schemas() map[string]semantics.Schema {
	return map[string]semantics.Schema{
		"papi": semantics.NewSchema(
			"time", semantics.TimeDomain(),
			"node", semantics.IDDomain("compute_node"),
			"cpu_id", semantics.IDDomain("cpu"),
			"aperf", semantics.ValueEntry("aperf_cycles", "count"),
			"mperf", semantics.ValueEntry("mperf_cycles", "count"),
			"instructions", semantics.ValueEntry("instructions", "count"),
		),
		"ipmi": semantics.NewSchema(
			"time", semantics.TimeDomain(),
			"node", semantics.IDDomain("compute_node"),
			"socket", semantics.IDDomain("cpu_socket"),
			"mem_reads", semantics.ValueEntry("memory_reads", "count"),
			"mem_writes", semantics.ValueEntry("memory_writes", "count"),
			"socket_power", semantics.ValueEntry("power", "watts"),
		),
		"cpu_specs": semantics.NewSchema(
			"node", semantics.IDDomain("compute_node"),
			"cpu_id", semantics.IDDomain("cpu"),
			"base_frequency", semantics.ValueEntry("frequency", "gigahertz"),
		),
	}
}

func fig5Query() Query {
	return Query{
		Domains: []string{"job", "rack"},
		Values: []QueryValue{
			{Dimension: "application"},
			{Dimension: "temperature_difference"},
		},
	}
}

func fig7Query() Query {
	return Query{
		Domains: []string{"cpu"},
		Values: []QueryValue{
			{Dimension: "active_frequency"},
			{Dimension: "instructions/time_duration"},
			{Dimension: "memory_reads/time_duration"},
		},
	}
}

func assertSteps(t *testing.T, plan *pipeline.Plan, want []string) {
	t.Helper()
	got := plan.Steps()
	if len(got) != len(want) {
		t.Fatalf("plan steps = %v\nwant %v\nplan:\n%s", got, want, plan)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %q, want %q\nplan:\n%s", i, got[i], want[i], plan)
		}
	}
}

func TestSolveFig5PlanShape(t *testing.T) {
	// The query from §7.2: application names for jobs and heat for racks.
	// The expected sequence is the paper's Figure 5: explode the job log
	// (discrete nodelist, continuous timespan), natural-join with the node
	// layout, derive heat from the rack temperatures, and relate the two
	// derived datasets with an interpolation join.
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	plan, err := e.Solve(context.Background(), fig5Query())
	if err != nil {
		t.Fatal(err)
	}
	assertSteps(t, plan, []string{
		"source:job_queue_log",
		"explode_discrete",
		"explode_continuous",
		"source:node_layout",
		"natural_join",
		"source:rack_temperatures",
		"derive_heat",
		"interpolation_join",
	})
}

func TestSolveFig7PlanShape(t *testing.T) {
	// The query from §7.3: active CPU frequency plus CPU and node counter
	// rates. Expected: derive counter rates for PAPI, natural-join with the
	// CPU specs (which carries the base frequency), derive active
	// frequency, derive counter rates for IPMI, and combine. The paper's
	// Figure 7 draws the final combine as a natural join with time elided;
	// with explicit time domains an exact join on a continuous dimension is
	// invalid under the paper's own §4.3 comparison rules, so the engine
	// selects an interpolation join with exact node matching.
	e := New(semantics.DefaultDictionary(), fig7Schemas(), DefaultOptions())
	plan, err := e.Solve(context.Background(), fig7Query())
	if err != nil {
		t.Fatal(err)
	}
	assertSteps(t, plan, []string{
		"source:ipmi",
		"derive_rate",
		"source:cpu_specs",
		"source:papi",
		"derive_rate",
		"natural_join",
		"derive_active_frequency",
		"interpolation_join",
	})
}

func TestSolveSingleDatasetSatisfies(t *testing.T) {
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	plan, err := e.Solve(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "temperature"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSteps(t, plan, []string{"source:rack_temperatures"})
}

func TestSolveSingleDatasetWithTransform(t *testing.T) {
	// Heat for racks alone needs only rack_temperatures + derive_heat.
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	plan, err := e.Solve(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "temperature_difference"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSteps(t, plan, []string{"source:rack_temperatures", "derive_heat"})
}

func TestSolveUnitConversionAppended(t *testing.T) {
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	plan, err := e.Solve(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "temperature", Units: "degrees_fahrenheit"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := plan.Steps()
	if steps[len(steps)-1] != "convert_units" {
		t.Errorf("expected trailing convert_units, got %v", steps)
	}
	// Requesting the units the data already has adds no conversion.
	plan2, err := e.Solve(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "temperature", Units: "degrees_celsius"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan2.Steps() {
		if s == "convert_units" {
			t.Error("no conversion should be added for matching units")
		}
	}
}

func TestSolveErrors(t *testing.T) {
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	// Empty query.
	if _, err := e.Solve(context.Background(), Query{}); err == nil {
		t.Error("empty query should fail")
	}
	// Unknown domain dimension: derivations cannot invent domains.
	if _, err := e.Solve(context.Background(), Query{Domains: []string{"filesystem"}}); err == nil {
		t.Error("absent domain dimension should fail")
	}
	// Value dimension that nothing can derive.
	if _, err := e.Solve(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "power"}},
	}); err == nil {
		t.Error("underivable value dimension should fail")
	}
	// Units that nothing can convert to.
	if _, err := e.Solve(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "temperature", Units: "watts"}},
	}); err == nil {
		t.Error("unconvertible units should fail")
	}
}

func TestSolveUnrelatableDatasets(t *testing.T) {
	schemas := map[string]semantics.Schema{
		"a": semantics.NewSchema(
			"x", semantics.IDDomain("cpu"),
			"v", semantics.ValueEntry("power", "watts")),
		"b": semantics.NewSchema(
			"y", semantics.IDDomain("rack"),
			"w", semantics.ValueEntry("temperature", "kelvin")),
	}
	e := New(semantics.DefaultDictionary(), schemas, DefaultOptions())
	if _, err := e.Solve(context.Background(), Query{
		Domains: []string{"cpu", "rack"},
		Values:  []QueryValue{{Dimension: "power"}, {Dimension: "temperature"}},
	}); err == nil {
		t.Error("datasets with no shared dimensions should not relate")
	}
}

func TestSolveMemoization(t *testing.T) {
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	if _, err := e.Solve(context.Background(), fig5Query()); err != nil {
		t.Fatal(err)
	}
	first := e.MemoHits()
	if _, err := e.Solve(context.Background(), fig5Query()); err != nil {
		t.Fatal(err)
	}
	second := e.MemoHits()
	if second <= first {
		t.Errorf("second solve should hit the memo table: %d -> %d", first, second)
	}
	// MemoHits is per-solve, not cumulative: a third identical solve
	// reports the same fresh count, not first+2*second.
	if _, err := e.Solve(context.Background(), fig5Query()); err != nil {
		t.Fatal(err)
	}
	if e.MemoHits() != second {
		t.Errorf("MemoHits should reset per solve: third solve reported %d, want %d", e.MemoHits(), second)
	}
}

func TestSolvedPlanExecutesEndToEnd(t *testing.T) {
	// Execute the Figure 5 plan on a miniature facility: one AMG job on
	// nodes n1,n2 (rack r17) and hot/cold sensor readings.
	ctx := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	schemas := fig5Schemas()
	e := New(dict, schemas, DefaultOptions())
	plan, err := e.Solve(context.Background(), fig5Query())
	if err != nil {
		t.Fatal(err)
	}

	jobs := []value.Row{value.NewRow(
		"job_id", value.Str("j1"),
		"job_name", value.Str("AMG"),
		"elapsed", value.Float(600),
		"nodelist", value.StrList("n1", "n2"),
		"timespan", value.Span(0, 600e9),
	)}
	layout := []value.Row{
		value.NewRow("node", value.Str("n1"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n2"), "rack", value.Str("r17")),
	}
	var temps []value.Row
	for ts := int64(0); ts <= 600; ts += 120 {
		for _, loc := range []string{"top", "mid", "bot"} {
			temps = append(temps,
				value.NewRow("rack", value.Str("r17"), "location", value.Str(loc),
					"aisle", value.Str("hot"), "time", value.TimeNanos(ts*1e9),
					"temp", value.Float(30+float64(ts)/100)),
				value.NewRow("rack", value.Str("r17"), "location", value.Str(loc),
					"aisle", value.Str("cold"), "time", value.TimeNanos(ts*1e9),
					"temp", value.Float(18)),
			)
		}
	}
	cat := pipeline.Catalog{
		"job_queue_log":     dataset.FromRows(ctx, "job_queue_log", jobs, schemas["job_queue_log"], 2),
		"node_layout":       dataset.FromRows(ctx, "node_layout", layout, schemas["node_layout"], 1),
		"rack_temperatures": dataset.FromRows(ctx, "rack_temperatures", temps, schemas["rack_temperatures"], 2),
	}
	out, err := pipeline.Execute(context.Background(), ctx, plan, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Collect()
	if len(rows) == 0 {
		t.Fatal("plan produced no rows")
	}
	for _, r := range rows {
		if r.Get("job_name").StrVal() != "AMG" {
			t.Errorf("row lost job name: %v", r)
		}
		if r.Get("rack").StrVal() != "r17" {
			t.Errorf("row lost rack: %v", r)
		}
		if !r.Has("heat") {
			t.Errorf("row lost heat: %v", r)
		}
		h := r.Get("heat").FloatVal()
		if h < 11 || h > 19 {
			t.Errorf("heat out of expected range: %v", h)
		}
	}
	// The queried schema holds: job domain, rack domain, application and
	// temperature_difference values.
	s := out.Schema()
	if !s.HasDomainDimension("job") || !s.HasDomainDimension("rack") ||
		!s.HasValueDimension("application") || !s.HasValueDimension("temperature_difference") {
		t.Errorf("result schema incomplete: %v", s)
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Domains: []string{"job"}, Values: []QueryValue{{Dimension: "power", Units: "watts"}, {Dimension: "application"}}}
	s := q.String()
	if !strings.Contains(s, "job") || !strings.Contains(s, "power(watts)") || !strings.Contains(s, "application") {
		t.Errorf("String() = %q", s)
	}
}

func TestOptionsDefaults(t *testing.T) {
	e := New(semantics.DefaultDictionary(), nil, Options{})
	if e.opts.MaxVariants <= 0 || e.opts.WindowSeconds <= 0 || e.opts.Candidate.ExplodePeriodSeconds <= 0 {
		t.Errorf("zero options should be defaulted: %+v", e.opts)
	}
}

func TestSolveBridgingDataset(t *testing.T) {
	// The two datasets contributing queried dimensions share no domain;
	// a third dataset that contributes nothing queried bridges them.
	// Algorithm 1 extends DF one dataset at a time from D - DF.
	schemas := map[string]semantics.Schema{
		"cpu_metrics": semantics.NewSchema(
			"cpu", semantics.IDDomain("cpu"),
			"ipc", semantics.ValueEntry("instructions/time_duration", "count/seconds"),
		),
		"rack_power": semantics.NewSchema(
			"rack", semantics.IDDomain("rack"),
			"power", semantics.ValueEntry("power", "watts"),
		),
		"cpu_rack_map": semantics.NewSchema(
			"cpu_id", semantics.IDDomain("cpu"),
			"rack_id", semantics.IDDomain("rack"),
		),
	}
	e := New(semantics.DefaultDictionary(), schemas, DefaultOptions())
	plan, err := e.Solve(context.Background(), Query{
		Domains: []string{"cpu", "rack"},
		Values:  []QueryValue{{Dimension: "instructions/time_duration"}, {Dimension: "power"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := plan.Steps()
	sources := 0
	for _, s := range steps {
		if strings.HasPrefix(s, "source:") {
			sources++
		}
	}
	if sources != 3 {
		t.Errorf("bridged plan should use all 3 datasets, got %v", steps)
	}
	// Without the bridge there is no solution.
	delete(schemas, "cpu_rack_map")
	e2 := New(semantics.DefaultDictionary(), schemas, DefaultOptions())
	if _, err := e2.Solve(context.Background(), Query{
		Domains: []string{"cpu", "rack"},
		Values:  []QueryValue{{Dimension: "instructions/time_duration"}, {Dimension: "power"}},
	}); err == nil {
		t.Error("unbridgeable query should fail")
	}
}

func TestInterpWindowFromCadence(t *testing.T) {
	// PAPI samples at 1 s, IPMI at 3 s: the engine should size the
	// interpolation window to the coarsest cadence (3 s), not the global
	// default (120 s).
	schemas := fig7Schemas()
	schemas["papi"]["time"] = schemas["papi"]["time"].WithCadence(1)
	schemas["ipmi"]["time"] = schemas["ipmi"]["time"].WithCadence(3)
	e := New(semantics.DefaultDictionary(), schemas, DefaultOptions())
	plan, err := e.Solve(context.Background(), fig7Query())
	if err != nil {
		t.Fatal(err)
	}
	// The root combine is the interpolation join; inspect its parameters.
	if plan.Root.Derivation != "interpolation_join" {
		t.Fatalf("root = %v", plan.Root.Derivation)
	}
	if w := plan.Root.Params["window_seconds"]; w != 3.0 {
		t.Errorf("window = %v, want 3 (coarsest cadence)", w)
	}
	// Without cadence annotations the default window applies.
	e2 := New(semantics.DefaultDictionary(), fig7Schemas(), DefaultOptions())
	plan2, err := e2.Solve(context.Background(), fig7Query())
	if err != nil {
		t.Fatal(err)
	}
	if w := plan2.Root.Params["window_seconds"]; w != 120.0 {
		t.Errorf("default window = %v, want 120", w)
	}
	// Exploded spans carry their period as cadence: the Figure 5 plan's
	// interpolation window becomes the sensor cadence (120 s), derived
	// from data, not defaulted.
	s5 := fig5Schemas()
	e3 := New(semantics.DefaultDictionary(), s5, DefaultOptions())
	plan3, err := e3.Solve(context.Background(), fig5Query())
	if err != nil {
		t.Fatal(err)
	}
	if w := plan3.Root.Params["window_seconds"]; w != 120.0 {
		t.Errorf("fig5 window = %v, want 120 (sensor cadence)", w)
	}
}

func TestSolveTraced(t *testing.T) {
	e := New(semantics.DefaultDictionary(), fig5Schemas(), DefaultOptions())
	plan, trace, err := e.SolveTraced(context.Background(), fig5Query())
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || trace == nil {
		t.Fatal("plan and trace expected")
	}
	out := trace.String()
	for _, want := range []string{
		"closure of", "DF (datasets contributing",
		"natural join (exact)", "interpolation join", "satisfies the query",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	// Failure traces record the reason.
	_, trace2, err := e.SolveTraced(context.Background(), Query{
		Domains: []string{"rack"},
		Values:  []QueryValue{{Dimension: "power"}},
	})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(trace2.String(), "failed:") {
		t.Errorf("failure trace missing reason:\n%s", trace2)
	}
	// Nil trace is safe.
	var nilTrace *Trace
	if nilTrace.String() != "" {
		t.Error("nil trace should render empty")
	}
	nilTrace.addf("ignored %d", 1)
}

func TestSharedValueDimensionDoesNotJoin(t *testing.T) {
	// §4.2: "if two data recordings describe the same value, such as the
	// same temperature, we cannot infer that the recordings are related."
	// Two datasets sharing only a value dimension (temperature) must not
	// combine.
	schemas := map[string]semantics.Schema{
		"cpu_temps": semantics.NewSchema(
			"cpu", semantics.IDDomain("cpu"),
			"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
		),
		"rack_temps": semantics.NewSchema(
			"rack", semantics.IDDomain("rack"),
			"temp2", semantics.ValueEntry("temperature", "degrees_celsius"),
		),
	}
	e := New(semantics.DefaultDictionary(), schemas, DefaultOptions())
	if _, err := e.Solve(context.Background(), Query{
		Domains: []string{"cpu", "rack"},
		Values:  []QueryValue{{Dimension: "temperature"}},
	}); err == nil {
		t.Error("datasets sharing only a value dimension must not relate")
	}
}
