package pipeline_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"scrubjay/internal/bench"
	"scrubjay/internal/cache"
	"scrubjay/internal/dataset"
	"scrubjay/internal/engine"
	"scrubjay/internal/frame"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
)

// TestCacheHitStaysColumnar: cached results come back from disk as their
// stored frames, and the plan runs on the columnar path — with a cached
// subtree feeding a join, and when the whole result is a cache hit.
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
	joinKey, err := pipeline.ResultKey(rc, join, cat)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(joinKey, joined); err != nil {
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
		if key, err := pipeline.ResultKey(rc, plan.Root, cat); err != nil || !c.Contains(key) {
			t.Fatalf("%s: the run did not cache its root", run)
		}
	}
}

// TestCachedRunComputesOnce: a cold Fig-5 run with a result cache computes
// every step once. It runs each stage of the uncached run as often as that
// run does, plus one collect per cache entry (the write) and one per
// distinct source (its digest, which the result keys name it by), and it
// computes each source partition as often as the uncached run.
func TestCachedRunComputesOnce(t *testing.T) {
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks, cfg.NodesPerRack, cfg.AMGRack = 4, 6, 2
	cfg.DAT1DurationSec = 1800
	cfg.Partitions = 4
	srcCat, schemas, _ := bench.DAT1Catalog(rdd.NewContext(2), cfg)
	dict := semantics.DefaultDictionary()
	ctx := context.Background()
	plan, err := engine.New(dict, schemas, engine.DefaultOptions()).Solve(ctx, bench.Fig5Query())
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *cache.Cache) (stages map[string]int, sourceParts int64) {
		rc := rdd.NewContext(2)
		var computed atomic.Int64
		cat := pipeline.Catalog{}
		for name, ds := range srcCat {
			frames := dataset.FromRowsColumnar(rc, name, ds.Collect(), schemas[name], ds.Rows().NumPartitions()).Frames()
			counted := rdd.MapPartitions(frames, func(_ int, in []*frame.Frame) []*frame.Frame {
				computed.Add(1)
				return in
			})
			cat[name] = dataset.NewFrames(name, counted.WithName(name), schemas[name])
		}
		rc.ResetMetrics()
		out, err := pipeline.Execute(ctx, rc, plan, cat, dict, pipeline.ExecOptions{Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		out.Collect()
		stages = map[string]int{}
		for _, s := range rc.SnapshotMetrics().Stages {
			stages[s.Name]++
		}
		return stages, computed.Load()
	}
	plain, plainParts := run(nil)
	c, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cached, cachedParts := run(c)

	total := func(m map[string]int) (n int) {
		for _, k := range m {
			n += k
		}
		return n
	}
	for name, n := range plain {
		if cached[name] != n {
			t.Errorf("stage %s ran %d times with a cache, %d without", name, cached[name], n)
		}
	}
	sources := map[string]bool{}
	for _, s := range plan.Steps() {
		if name, ok := strings.CutPrefix(s, "source:"); ok {
			sources[name] = true
		}
	}
	if got, want := total(cached), total(plain)+c.Len()+len(sources); got != want {
		t.Errorf("with a cache the run took %d stages, want %d (%d without, plus one per %d entries and %d sources)",
			got, want, total(plain), c.Len(), len(sources))
	}
	if cachedParts != plainParts {
		t.Errorf("with a cache the run computed %d source partitions, %d without", cachedParts, plainParts)
	}
}
