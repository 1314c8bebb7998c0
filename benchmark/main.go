// Command benchmark is the repository's one repeatable benchmark: four
// closed-loop workloads over the public functions of derive, frame, rdd,
// dataset, engine, pipeline, shuffle, cluster, server and wrappers, each
// reporting the end-to-end metrics BENCHMARK.json declares and, in a
// separate traced run, one table of per-layer metrics. See README.md.
//
//	benchmark -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
//	benchmark -selfcheck N
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"scrubjay/internal/derive"
)

// sizes fixes how much data every workload generates. They are constants of
// the benchmark, not options: a later benchmark issue re-sizes them once the
// program is more than twice as fast (README, "Sizing").
type sizes struct {
	natRows    int // per input table of natjoin_batch
	interpRows int // per input stream of interpjoin_batch
	joinParts  int
	dist       dat1Size // query_dist catalog
	serve      dat1Size // serve_mix DAT-1 part
	serveDAT2  [2]int64 // serve_mix DAT-2 run and gap seconds
	fillers    int
	fillerRows int
	warmups    int // warm-up ops inside every set-up
	natWarmups int // the same for natjoin_batch, whose ops are a third as long
}

var fullSizes = sizes{
	natRows:    200_000,
	interpRows: 50_000,
	joinParts:  8,
	dist:       dat1Size{racks: 8, nodesPerRack: 24, durationSec: 7200},
	serve:      dat1Size{racks: 4, nodesPerRack: 16, durationSec: 3600},
	serveDAT2:  [2]int64{40, 10},
	fillers:    18,
	fillerRows: 1000,
	warmups:    2,
	natWarmups: 6,
}

// smokeSizes keeps `go test` under a few seconds, also under -race.
var smokeSizes = sizes{
	natRows:    2000,
	interpRows: 1000,
	joinParts:  4,
	dist:       dat1Size{racks: 2, nodesPerRack: 4, durationSec: 1200},
	serve:      dat1Size{racks: 2, nodesPerRack: 4, durationSec: 1200},
	serveDAT2:  [2]int64{5, 2},
	fillers:    18,
	fillerRows: 20,
	warmups:    1,
	natWarmups: 1,
}

// workloadNames is the order workloads are listed and self-checked in.
var workloadNames = []string{"natjoin_batch", "interpjoin_batch", "query_dist", "serve_mix"}

// procs is the one parallelism knob: GOMAXPROCS, the rdd worker count and
// the serve_mix client count are all min(nproc, 4).
func procs() int { return min(runtime.NumCPU(), 4) }

// newWorkload builds a workload at the given sizes. scratch is an existing
// directory the workload may generate files into.
func newWorkload(name string, sz sizes, scratch string) (workload, error) {
	switch name {
	case "natjoin_batch":
		return &joinWorkload{layer: "natjoin", comb: &derive.NaturalJoin{}, gen: genNatJoin, known: natJoinChecksum,
			rows: sz.natRows, parts: sz.joinParts, workers: procs(), warmups: sz.natWarmups, tailQ: 0.90}, nil
	case "interpjoin_batch":
		return &joinWorkload{layer: "interpjoin", comb: &derive.InterpolationJoin{WindowSeconds: 2}, gen: genInterpJoin,
			rows: sz.interpRows, parts: sz.joinParts, workers: procs(), warmups: sz.warmups, tailQ: 0.75}, nil
	case "query_dist":
		return &distWorkload{size: sz.dist, parts: sz.joinParts, workers: procs(), warmups: sz.warmups}, nil
	case "serve_mix":
		return &serveWorkload{sz: sz, workers: procs(), nclients: procs(), dir: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: one of "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "seed for the generated inputs and the request schedule")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	outDir := flag.String("out", "benchmark/out", "directory for trace.json and generated catalog files")
	selfcheck := flag.Int("selfcheck", 0, "run every workload N times with seeds 1..N for the declared run_seconds and check the spreads against BENCHMARK.json")
	flag.Parse()
	runtime.GOMAXPROCS(procs())
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	scratch, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	w, err := newWorkload(*name, fullSizes, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	res, err := runWorkload(*name, w, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, setups: 3, outDir: *outDir})
	if err != nil {
		return fail(err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
