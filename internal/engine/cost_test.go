package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/value"
)

// ndvSchemas is a minimal all-discrete catalog whose only viable plan is a
// natural join of the two datasets on compute_node.
func ndvSchemas() map[string]semantics.Schema {
	return map[string]semantics.Schema{
		"jobs": semantics.NewSchema(
			"job_id", semantics.IDDomain("job"),
			"node", semantics.IDDomain("compute_node"),
			"jname", semantics.ValueEntry("application", "identifier"),
		),
		"layout": semantics.NewSchema(
			"node", semantics.IDDomain("compute_node"),
			"rack", semantics.IDDomain("rack"),
		),
	}
}

func ndvQuery() Query {
	return Query{
		Domains: []string{"job", "rack"},
		Values:  []QueryValue{{Dimension: "application"}},
	}
}

func solveNDV(t *testing.T, store *stats.Store) *Engine {
	t.Helper()
	opts := DefaultOptions()
	opts.Stats = store
	return New(semantics.DefaultDictionary(), ndvSchemas(), opts)
}

// TestCombineCostNDVTightensEstimate: with join-key NDV facts in the store,
// the natural-join output cardinality uses the distinct-value estimate
// |L|·|R|/max(ndv) instead of the row-preserving |L|+|R| guess, and the
// estimate records which ndv facts it consumed.
func TestCombineCostNDVTightensEstimate(t *testing.T) {
	rowsOnly := stats.NewStore()
	rowsOnly.SetTable("jobs", stats.TableStats{Rows: 1000})
	rowsOnly.SetTable("layout", stats.TableStats{Rows: 200})

	withNDV := stats.NewStore()
	withNDV.SetTable("jobs", stats.TableStats{Rows: 1000, Columns: map[string]stats.ColumnStats{
		"node": {NDV: 500},
	}})
	withNDV.SetTable("layout", stats.TableStats{Rows: 200, Columns: map[string]stats.ColumnStats{
		"node": {NDV: 200},
	}})

	rootEstimate := func(store *stats.Store) ([]string, int64) {
		e := solveNDV(t, store)
		plan, err := e.Solve(context.Background(), ndvQuery())
		if err != nil {
			t.Fatal(err)
		}
		if plan.Root.Derivation != "natural_join" {
			t.Fatalf("plan root = %q, want natural_join\n%s", plan.Root.Derivation, plan)
		}
		est := plan.Root.Estimate
		if est == nil || !est.Informed {
			t.Fatalf("root estimate = %+v, want informed", est)
		}
		return est.StatsInputs, est.Rows
	}

	_, before := rootEstimate(rowsOnly)
	if before != 1200 {
		t.Fatalf("rows-only estimate = %d, want 1200 (row-preserving default over 1000+200)", before)
	}

	inputs, after := rootEstimate(withNDV)
	// 1000 * 200 / max(500, 200) = 400: the NDV estimate tightens the
	// uninformed 1200-row guess.
	if after != 400 {
		t.Fatalf("ndv-informed estimate = %d, want 400", after)
	}
	joined := strings.Join(inputs, " ")
	for _, want := range []string{"ndv:jobs.node", "ndv:layout.node"} {
		if !strings.Contains(joined, want) {
			t.Errorf("estimate inputs %v missing fact %q", inputs, want)
		}
	}
}

// TestCombineCostNDVAbsentKeepsPlan: without column NDV facts the new code
// path must be inert — the plan solved against a rows-only store has the
// identical step structure to the plan solved with no store at all. (The
// encoded bytes legitimately differ: a store adds estimate annotations.)
func TestCombineCostNDVAbsentKeepsPlan(t *testing.T) {
	solve := func(store *stats.Store) string {
		e := solveNDV(t, store)
		plan, err := e.Solve(context.Background(), ndvQuery())
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(plan.Steps(), "\n")
	}
	bare := solve(nil)
	rowsOnly := stats.NewStore()
	rowsOnly.SetTable("jobs", stats.TableStats{Rows: 1000})
	rowsOnly.SetTable("layout", stats.TableStats{Rows: 200})
	if got := solve(rowsOnly); got != bare {
		t.Fatalf("rows-only store changed the plan steps:\n%s\nvs no store:\n%s", got, bare)
	}
}

// TestNDVObservedSelectivityWins: an observed selectivity for the exact join
// outranks the NDV estimate — real behavior beats the textbook formula.
func TestNDVObservedSelectivityWins(t *testing.T) {
	store := stats.NewStore()
	store.SetTable("jobs", stats.TableStats{Rows: 1000, Columns: map[string]stats.ColumnStats{
		"node": {NDV: 500},
	}})
	store.SetTable("layout", stats.TableStats{Rows: 200, Columns: map[string]stats.ColumnStats{
		"node": {NDV: 200},
	}})
	// Observed: this join halves its input rows.
	store.Observe("natural_join|jobs|layout",
		stats.DerivationStats{Observations: 4, RowsIn: 2400, RowsOut: 1200, Micros: 100})

	e := solveNDV(t, store)
	plan, err := e.Solve(context.Background(), ndvQuery())
	if err != nil {
		t.Fatal(err)
	}
	est := plan.Root.Estimate
	if est == nil {
		t.Fatal("no root estimate")
	}
	// (1000+200) * 0.5 observed selectivity, not the NDV formula's 400.
	if est.Rows != 600 {
		t.Fatalf("estimate rows = %d, want 600 (observed selectivity)", est.Rows)
	}
	joined := strings.Join(est.StatsInputs, " ")
	if strings.Contains(joined, "ndv:") {
		t.Errorf("estimate inputs %v should not include ndv facts when selectivity was observed", est.StatsInputs)
	}
}

// chainCatalog is the join-order workload: a fact table chain_jobs
// (job → node, rows rows), a 300-row chain_layout (node → rack) and a
// 30-row chain_racks (rack → location). Answering {job, rack_location}
// takes two natural joins; both orders are structurally identical, so the
// cold engine's tie-break starts from the fact table, while joining the
// two small mappings first touches far fewer rows.
func chainCatalog(rc *rdd.Context, rows int) (pipeline.Catalog, map[string]semantics.Schema) {
	const nodes, racks = 300, 30
	schemas := map[string]semantics.Schema{
		"chain_jobs": semantics.NewSchema(
			"job_id", semantics.IDDomain("job"),
			"node", semantics.IDDomain("compute_node"),
			"job_name", semantics.ValueEntry("application", "identifier"),
		),
		"chain_layout": semantics.NewSchema(
			"node", semantics.IDDomain("compute_node"),
			"rack", semantics.IDDomain("rack"),
		),
		"chain_racks": semantics.NewSchema(
			"rack", semantics.IDDomain("rack"),
			"location", semantics.IDDomain("rack_location"),
		),
	}
	gen := func(n int, row func(i int) value.Row) []value.Row {
		out := make([]value.Row, n)
		for i := range out {
			out[i] = row(i)
		}
		return out
	}
	jobs := gen(rows, func(i int) value.Row {
		return value.NewRow(
			"job_id", value.Str(fmt.Sprintf("job%06d", i)),
			"node", value.Str(fmt.Sprintf("n%03d", i%nodes)),
			"job_name", value.Str(fmt.Sprintf("app%d", i%7)))
	})
	layout := gen(nodes, func(i int) value.Row {
		return value.NewRow(
			"node", value.Str(fmt.Sprintf("n%03d", i)),
			"rack", value.Str(fmt.Sprintf("r%02d", i%racks)))
	})
	rackRows := gen(racks, func(i int) value.Row {
		return value.NewRow(
			"rack", value.Str(fmt.Sprintf("r%02d", i)),
			"location", value.Str(fmt.Sprintf("row%d", i%4)))
	})
	cat := pipeline.Catalog{
		"chain_jobs":   dataset.FromRows(rc, "chain_jobs", jobs, schemas["chain_jobs"], 8),
		"chain_layout": dataset.FromRows(rc, "chain_layout", layout, schemas["chain_layout"], 1),
		"chain_racks":  dataset.FromRows(rc, "chain_racks", rackRows, schemas["chain_racks"], 1),
	}
	return cat, schemas
}

// sortedRowJSON is a result's row multiset as sorted JSON encodings.
func sortedRowJSON(t *testing.T, rows []value.Row) []string {
	t.Helper()
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

// TestStatsSwitchJoinOrder: statistics recorded from one traced cold run
// flip the chain query's join order to a plan that costs no more under the
// same store, and both plans return the identical row multiset. Exact
// plan identities and estimates only — no wall clock.
func TestStatsSwitchJoinOrder(t *testing.T) {
	rc := rdd.NewContext(2)
	dict := semantics.DefaultDictionary()
	cat, schemas := chainCatalog(rc, 2000)
	q := Query{
		Domains: []string{"job", "rack_location"},
		Values:  []QueryValue{{Dimension: "application"}},
	}

	cold, err := New(dict, schemas, DefaultOptions()).Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer("plan-switch", nil)
	qspan := tr.Start(obs.KindQuery, "query")
	exec := qspan.Child(obs.KindExec, "execute")
	rc.SetSpan(exec)
	out, err := pipeline.Execute(context.Background(), rc, cold, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	coldRows := out.Collect()
	rc.SetSpan(nil)
	exec.End()
	qspan.End()

	st := stats.NewStore()
	for name, ds := range cat {
		st.SetTable(name, stats.TableStats{Rows: ds.Count()})
	}
	if n := (stats.Recorder{Store: st}).Record(cold, tr.Artifact().Root, nil); n == 0 {
		t.Fatal("recorder took no observations from the cold run's trace")
	}

	opts := DefaultOptions()
	opts.Stats = st
	warm, err := New(dict, schemas, opts).Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hash() == cold.Hash() {
		t.Fatalf("statistics did not switch the plan:\n%s", warm)
	}
	coldEst := CostPlan(cold, st)
	if warm.Root.Estimate == nil || coldEst == nil {
		t.Fatalf("missing estimates: warm %+v, cold %+v", warm.Root.Estimate, coldEst)
	}
	if warm.Root.Estimate.CPU > coldEst.CPU {
		t.Errorf("warm plan est CPU %d > cold plan %d under the same store", warm.Root.Estimate.CPU, coldEst.CPU)
	}

	out, err = pipeline.Execute(context.Background(), rc, warm, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := sortedRowJSON(t, out.Collect()), sortedRowJSON(t, coldRows)
	if !slices.Equal(got, want) {
		t.Errorf("warm plan rows differ from cold: %d vs %d rows", len(got), len(want))
	}
}
