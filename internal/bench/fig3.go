package bench

import (
	"fmt"
	"time"

	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// JoinWorkload sizes the Figure 3 synthetic workloads.
type JoinWorkload struct {
	// Rows is the row count per input dataset.
	Rows int
	// Partitions is the RDD partition count (the paper runs 320 cores; we
	// default to 64 partitions to keep task logs representative).
	Partitions int
	// Workers is the real worker-pool size.
	Workers int
	// WindowSeconds is the interpolation-join window.
	WindowSeconds float64
}

// DefaultJoinWorkload returns laptop-scale defaults (the paper sweeps 2M to
// 40M rows on a 10-node cluster; pass larger Rows to approach that).
func DefaultJoinWorkload() JoinWorkload {
	return JoinWorkload{Rows: 100_000, Partitions: 64, Workers: 0, WindowSeconds: 2}
}

// naturalJoinInputs builds two datasets of n rows each sharing the
// compute_node domain with unique keys, so the join output is n rows: the
// shuffle (the paper's bottleneck) dominates, as in §6.
func naturalJoinInputs(ctx *rdd.Context, n, parts int) (*dataset.Dataset, *dataset.Dataset) {
	ls := semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	rs := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"power", semantics.ValueEntry("power", "watts"),
	)
	left := dataset.New("nj-left", rdd.Generate(ctx, n, parts, func(i int) value.Row {
		return value.Row{
			"node_id": value.Str(fmt.Sprintf("node%08d", i)),
			"load":    value.Float(float64(i%100) / 100),
		}
	}).WithName("nj-left"), ls)
	right := dataset.New("nj-right", rdd.Generate(ctx, n, parts, func(i int) value.Row {
		return value.Row{
			"node":  value.Str(fmt.Sprintf("node%08d", i)),
			"power": value.Float(float64(100 + i%200)),
		}
	}).WithName("nj-right"), rs)
	return left, right
}

// interpJoinInputs builds two timestamped streams over a shared node domain
// whose instants do not align: 64 nodes, one sample per second per node on
// the left, right samples offset by half a second. With a small window the
// match count per row is constant, so output size stays linear in input
// size, matching the paper's Figure 3 setup.
func interpJoinInputs(ctx *rdd.Context, n, parts int) (*dataset.Dataset, *dataset.Dataset) {
	const nodes = 64
	ls := semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"t", semantics.TimeDomain(),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)
	rs := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"ts", semantics.TimeDomain(),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
	)
	left := dataset.New("ij-left", rdd.Generate(ctx, n, parts, func(i int) value.Row {
		node := i % nodes
		sample := int64(i / nodes)
		return value.Row{
			"node_id": value.Str(fmt.Sprintf("node%03d", node)),
			"t":       value.TimeNanos(sample * 1e9),
			"load":    value.Float(float64(i%100) / 100),
		}
	}).WithName("ij-left"), ls)
	right := dataset.New("ij-right", rdd.Generate(ctx, n, parts, func(i int) value.Row {
		node := i % nodes
		sample := int64(i / nodes)
		return value.Row{
			"node": value.Str(fmt.Sprintf("node%03d", node)),
			"ts":   value.TimeNanos(sample*1e9 + 5e8),
			"temp": value.Float(20 + float64(i%40)),
		}
	}).WithName("ij-right"), rs)
	return left, right
}

// JoinRunResult captures one measured join execution.
type JoinRunResult struct {
	Rows       int
	OutputRows int64
	// Metrics is the recorded task log, replayable onto simulated clusters.
	Metrics rdd.Metrics
}

// Simulated returns the makespan of the run on a simulated cluster of the
// given node count (32 cores/node, the paper's configuration).
func (r JoinRunResult) Simulated(nodes int) time.Duration {
	return rdd.SimulateMakespan(r.Metrics, rdd.PaperCluster(nodes))
}

// RunNaturalJoin executes one natural join of the synthetic workload and
// returns its measurements. The inputs enter as columnar datasets, as every
// dataset does under pipeline execution, so the measured join is the
// columnar kernel a query runs, not the row reference operator.
func RunNaturalJoin(w JoinWorkload) (JoinRunResult, error) {
	ctx := rdd.NewContext(w.Workers)
	dict := semantics.DefaultDictionary()
	left, right := naturalJoinInputs(ctx, w.Rows, w.Partitions)
	ctx.ResetMetrics()
	out, err := (&derive.NaturalJoin{}).Apply(left.Columnar(), right.Columnar(), dict)
	if err != nil {
		return JoinRunResult{}, err
	}
	return JoinRunResult{Rows: w.Rows, OutputRows: out.Count(), Metrics: ctx.SnapshotMetrics()}, nil
}

// RunInterpJoin executes one interpolation join of the synthetic workload,
// on columnar inputs for the same reason as RunNaturalJoin.
func RunInterpJoin(w JoinWorkload) (JoinRunResult, error) {
	ctx := rdd.NewContext(w.Workers)
	dict := semantics.DefaultDictionary()
	left, right := interpJoinInputs(ctx, w.Rows, w.Partitions)
	ctx.ResetMetrics()
	out, err := (&derive.InterpolationJoin{WindowSeconds: w.WindowSeconds}).Apply(left.Columnar(), right.Columnar(), dict)
	if err != nil {
		return JoinRunResult{}, err
	}
	return JoinRunResult{Rows: w.Rows, OutputRows: out.Count(), Metrics: ctx.SnapshotMetrics()}, nil
}

// Fig3Scaling runs one join at fixed rows and replays its task log onto
// simulated clusters of 1..10 nodes (Figure 3 right panels).
func Fig3Scaling(label string, run func(JoinWorkload) (JoinRunResult, error), w JoinWorkload) (Series, error) {
	res, err := run(w)
	if err != nil {
		return Series{}, err
	}
	s := Series{Label: label, XLabel: "nodes", YLabel: "seconds(sim)"}
	for nodes := 1; nodes <= 10; nodes++ {
		s.Add(float64(nodes), res.Simulated(nodes).Seconds())
	}
	return s, nil
}
