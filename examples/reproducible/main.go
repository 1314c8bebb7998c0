// Reproducible demonstrates ScrubJay's reproducible derivation sequences
// (§5.4): solve a query once, serialize the derivation sequence to
// human-editable JSON, reload it, and re-execute it — including against
// data unwrapped to and rewrapped from disk — obtaining identical results.
// It also shows the opt-in derivation-result cache reusing a shared
// expensive prefix across two different pipelines.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"scrubjay/internal/bench"
	"scrubjay/internal/cache"
	"scrubjay/internal/engine"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/wrappers"
)

func main() {
	dir, err := os.MkdirTemp("", "scrubjay-repro")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A fixed worker count fixes the partitioning, and so the size of the
	// cache entries, which store each partition's frame.
	ctx := rdd.NewContext(4)
	dict := semantics.DefaultDictionary()

	// Simulate the first DAT and unwrap its datasets to JSON-lines files —
	// the shareable on-disk form.
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks = 6
	cfg.NodesPerRack = 8
	cfg.AMGRack = 4
	cfg.DAT1DurationSec = 3600
	cat, schemas, _ := bench.DAT1Catalog(ctx, cfg)
	for name, ds := range cat {
		path := filepath.Join(dir, name+".jsonl")
		if err := wrappers.Write(ds, wrappers.Source{Format: "jsonl", Path: path}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("unwrapped %d datasets to %s\n", len(cat), dir)

	// Solve the §7.2 query and store the derivation sequence.
	e := engine.New(dict, schemas, engine.DefaultOptions())
	plan, err := e.Solve(context.Background(), bench.Fig5Query())
	if err != nil {
		log.Fatal(err)
	}
	planPath := filepath.Join(dir, "jobs-x-heat.plan.json")
	data, err := plan.Encode()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(planPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derivation sequence stored at %s (%d bytes, hash %s)\n",
		planPath, len(data), plan.Hash())

	// A different analyst, a different process: reload everything from
	// disk and replay the stored sequence.
	stored, err := os.ReadFile(planPath)
	if err != nil {
		log.Fatal(err)
	}
	replayPlan, err := pipeline.Decode(stored)
	if err != nil {
		log.Fatal(err)
	}
	replayCat := pipeline.Catalog{}
	for name := range cat {
		ds, err := wrappers.Read(ctx, wrappers.Source{
			Format: "jsonl", Path: filepath.Join(dir, name+".jsonl"), Name: name})
		if err != nil {
			log.Fatal(err)
		}
		replayCat[name] = ds
	}

	// Execute with the derivation-result cache enabled, twice: the second
	// run is served from the cache.
	c, err := cache.Open(filepath.Join(dir, "cache"), 64<<20)
	if err != nil {
		log.Fatal(err)
	}
	first, err := pipeline.Execute(context.Background(), ctx, replayPlan, replayCat, dict, pipeline.ExecOptions{Cache: c})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed: %d rows; cache now holds %d entries (%d bytes)\n",
		first.Count(), c.Len(), c.TotalBytes())
	second, err := pipeline.Execute(context.Background(), ctx, replayPlan, replayCat, dict, pipeline.ExecOptions{Cache: c})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed again from cache: %d rows (identical: %v)\n",
		second.Count(), first.Count() == second.Count())

	// Reproducibility check: original in-memory execution matches the
	// stored-and-replayed execution row for row.
	orig, err := pipeline.Execute(context.Background(), ctx, plan, cat, dict, pipeline.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cols := orig.Schema().Columns()
	a := orig.SortedBy(cols...)
	b := first.SortedBy(cols...)
	same := len(a) == len(b)
	for i := 0; same && i < len(a); i++ {
		same = a[i].Equal(b[i])
	}
	fmt.Printf("original vs replayed results identical: %v (%d rows)\n", same, len(a))
	if !same {
		os.Exit(1)
	}
}
