package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"scrubjay/internal/bench"
	"scrubjay/internal/facility"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/workload"
	"scrubjay/internal/wrappers"
)

// cmdGen generates the synthetic monitoring datasets of the paper's case
// studies (§7) into a directory of files with schema sidecars, a catalog
// the other subcommands load like any other wrapped data source.
func cmdGen(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	dat := fs.Int("dat", 1, "which dedicated-access-time session to simulate (1 or 2)")
	format := fs.String("format", "jsonl", "output format: jsonl or csv")
	cfg := bench.DefaultCaseStudyConfig()
	fs.IntVar(&cfg.Racks, "racks", 20, "number of racks")
	fs.IntVar(&cfg.NodesPerRack, "nodes-per-rack", 64, "nodes per rack")
	fs.IntVar(&cfg.AMGRack, "amg-rack", 17, "rack hosting the AMG job (DAT 1)")
	fs.Int64Var(&cfg.DAT1DurationSec, "duration", 7200, "DAT-1 duration in seconds")
	fs.Int64Var(&cfg.DAT2RunSec, "run", 300, "DAT-2 per-run duration in seconds")
	fs.Int64Var(&cfg.DAT2GapSec, "gap", 60, "DAT-2 gap between runs in seconds")
	fs.Int64Var(&cfg.Seed, "seed", 1, "simulation seed")
	withNet := fs.Bool("with-network", false, "also emit per-link network counters and the link layout (DAT 1)")
	withFS := fs.Bool("with-fs", false, "also emit filesystem counters, instruction samples, and the node/server map (DAT 1)")
	fs.Parse(args)
	if *out == "" {
		fs.Usage()
		return usageError("gen: -out is required")
	}
	if *format != "jsonl" && *format != "csv" {
		return usageError(fmt.Sprintf("gen: unsupported format %q", *format))
	}
	if *dat != 1 && *dat != 2 {
		return usageError(fmt.Sprintf("gen: unknown DAT %d", *dat))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	rc := rdd.NewContext(0)
	var cat pipeline.Catalog
	if *dat == 2 {
		cat, _, _ = bench.DAT2Catalog(rc, cfg)
	} else {
		var sched *workload.Schedule
		cat, _, sched = bench.DAT1Catalog(rc, cfg)
		nodes := facility.New(facility.Config{Racks: cfg.Racks, NodesPerRack: cfg.NodesPerRack, Seed: cfg.Seed}).Nodes()
		if *withNet {
			cat["link_layout"] = workload.LinkLayout(rc, nodes, cfg.Partitions)
			cat["network_counters"] = workload.SimulateNetwork(rc, sched, nodes, 0, cfg.DAT1DurationSec,
				workload.DefaultNetworkConfig(), cfg.Partitions)
		}
		if *withFS {
			fsc := workload.DefaultFSConfig()
			cat["fs_map"] = workload.FSMap(rc, nodes, fsc, cfg.Partitions)
			cat["fs_counters"] = workload.SimulateFSCounters(rc, fsc, 0, cfg.DAT1DurationSec, cfg.Partitions)
			cat["instruction_samples"] = workload.SimulateInstructionSamples(rc, fsc,
				nodes[:min(4, len(nodes))], 4, 0, cfg.DAT1DurationSec, cfg.Partitions)
		}
	}

	for name, ds := range cat {
		path := filepath.Join(*out, name+"."+*format)
		if err := wrappers.Write(ds, wrappers.Source{Format: *format, Path: path}); err != nil {
			return err
		}
		fmt.Printf("wrote %-22s %8d rows -> %s\n", name, ds.Count(), path)
	}
	return nil
}
