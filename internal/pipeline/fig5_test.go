package pipeline_test

import (
	"context"
	"testing"

	"scrubjay/internal/bench"
	"scrubjay/internal/cache"
	"scrubjay/internal/dataset"
	"scrubjay/internal/engine"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
)

// TestCacheHitStaysColumnar: cached results come back from disk row-form,
// yet the plan still runs on the columnar path — with a cached subtree
// feeding a join, and when the whole result is a cache hit.
func TestCacheHitStaysColumnar(t *testing.T) {
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks, cfg.NodesPerRack, cfg.AMGRack = 4, 6, 2
	cfg.DAT1DurationSec = 1800
	cfg.Partitions = 4
	srcCat, schemas, _ := bench.DAT1Catalog(rdd.NewContext(2), cfg)
	rc := rdd.NewContext(2)
	cat := pipeline.Catalog{}
	for name, ds := range srcCat {
		cat[name] = dataset.FromRowsColumnar(rc, name, ds.Collect(), schemas[name], ds.Rows().NumPartitions())
	}
	dict := semantics.DefaultDictionary()
	ctx := context.Background()
	plan, err := engine.New(dict, schemas, engine.DefaultOptions()).Solve(ctx, bench.Fig5Query())
	if err != nil {
		t.Fatal(err)
	}
	var join *pipeline.Node
	var find func(n *pipeline.Node)
	find = func(n *pipeline.Node) {
		if n.Derivation == "natural_join" {
			join = n
		}
		for _, in := range n.Inputs {
			find(in)
		}
	}
	find(plan.Root)
	if join == nil {
		t.Fatal("Fig-5 plan has no natural_join step")
	}

	c, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := pipeline.Execute(ctx, rc, &pipeline.Plan{Root: join}, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(join.Hash(), joined); err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.Execute(ctx, rc, plan, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := want.Collect()

	for _, run := range []string{"natural_join subtree cached", "root cached"} {
		out, err := pipeline.Execute(ctx, rc, plan, cat, dict, pipeline.ExecOptions{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if !out.IsColumnar() {
			t.Errorf("%s: result is row-form, want columnar", run)
		}
		if got := out.Collect(); len(got) != len(wantRows) {
			t.Errorf("%s: %d rows, want %d", run, len(got), len(wantRows))
		}
		if !c.Contains(plan.Hash()) {
			t.Fatalf("%s: the run did not cache its root", run)
		}
	}
}
