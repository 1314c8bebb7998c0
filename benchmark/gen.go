package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"scrubjay/internal/dataset"
	"scrubjay/internal/engine"
	"scrubjay/internal/facility"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
	sim "scrubjay/internal/workload"
	"scrubjay/internal/wrappers"
)

// Generated inputs. Nothing in this file is ever timed: the program under
// test sees only the rows and files produced here. Every size is a function
// of the scale alone and every value a function of (scale, seed), so two
// runs with one seed do identical work and runs with different seeds do the
// same amount of work on different keys.

// table is one generated dataset in boundary (row) form.
type table struct {
	name   string
	rows   []value.Row
	schema semantics.Schema
}

// genNatJoin builds the Fig-3a inputs: two tables of n rows sharing the
// compute_node domain. Keys are unique on both sides, so the join emits
// exactly n rows; the seed permutes both row orders independently, which
// changes which partition each key starts in and where it is shuffled to.
func genNatJoin(seed int64, n int) (left, right table) {
	rng := rand.New(rand.NewSource(seed))
	lp, rp := rng.Perm(n), rng.Perm(n)
	left = table{name: "nj_left", rows: make([]value.Row, n), schema: semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)}
	right = table{name: "nj_right", rows: make([]value.Row, n), schema: semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"power", semantics.ValueEntry("power", "watts"),
	)}
	for i := 0; i < n; i++ {
		l, r := lp[i], rp[i]
		left.rows[i] = value.Row{
			"node_id": value.Str(fmt.Sprintf("node%08d", l)),
			"load":    value.Float(float64(l%100) / 100),
		}
		right.rows[i] = value.Row{
			"node":  value.Str(fmt.Sprintf("node%08d", r)),
			"power": value.Float(float64(100 + r%200)),
		}
	}
	return left, right
}

// interpNodes is the number of distinct nodes in the Fig-3c streams.
const interpNodes = 64

// genInterpJoin builds the Fig-3c inputs: two timestamped streams over
// interpNodes nodes, one sample per second per node, the right stream half
// a second out of phase. With a 2 s window every left instant has right
// neighbours, so the join emits exactly n rows. The seed permutes row order
// and jitters each right node's phase by under 0.1 s, which moves bin
// boundaries without changing any match count.
func genInterpJoin(seed int64, n int) (left, right table) {
	rng := rand.New(rand.NewSource(seed))
	lp, rp := rng.Perm(n), rng.Perm(n)
	jitter := make([]int64, interpNodes)
	for i := range jitter {
		jitter[i] = rng.Int63n(2e8) - 1e8
	}
	left = table{name: "ij_left", rows: make([]value.Row, n), schema: semantics.NewSchema(
		"node_id", semantics.IDDomain("compute_node"),
		"t", semantics.TimeDomain(),
		"load", semantics.ValueEntry("fraction", "fraction"),
	)}
	right = table{name: "ij_right", rows: make([]value.Row, n), schema: semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"ts", semantics.TimeDomain(),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
	)}
	for i := 0; i < n; i++ {
		l, r := lp[i], rp[i]
		left.rows[i] = value.Row{
			"node_id": value.Str(fmt.Sprintf("node%03d", l%interpNodes)),
			"t":       value.TimeNanos(int64(l/interpNodes) * 1e9),
			"load":    value.Float(float64(l%100) / 100),
		}
		right.rows[i] = value.Row{
			"node": value.Str(fmt.Sprintf("node%03d", r%interpNodes)),
			"ts":   value.TimeNanos(int64(r/interpNodes)*1e9 + 5e8 + jitter[r%interpNodes]),
			"temp": value.Float(20 + float64(r%40)),
		}
	}
	return left, right
}

// dat1Size sizes a simulated first dedicated-access-time session (§7.2).
type dat1Size struct {
	racks, nodesPerRack int
	durationSec         int64
}

// collect materializes a simulator's dataset into a table.
func collect(ds *dataset.Dataset) table {
	return table{name: ds.Name(), rows: ds.Collect(), schema: ds.Schema()}
}

// genDAT1 simulates the job queue log, node layout and rack temperatures.
// The seed is the facility seed (sensor noise); row counts depend on the
// size alone. AMG runs on the last rack, as rack 17 of 20 does in the paper.
func genDAT1(seed int64, sz dat1Size) []table {
	ctx := rdd.NewContext(1)
	f := facility.New(facility.Config{Racks: sz.racks, NodesPerRack: sz.nodesPerRack, Seed: seed})
	sched := sim.DAT1(f, sz.racks-1, sz.durationSec)
	return []table{
		collect(sched.JobQueueLog(ctx, 1)),
		collect(f.LayoutDataset(ctx, 1)),
		collect(f.SimulateTemperatures(ctx, sched.PowerFunc(), 0, sz.durationSec, facility.DefaultThermalConfig(), 1)),
	}
}

// genDAT2 simulates the PAPI, IPMI and CPU-spec tables of the second
// session (§7.3) on two instrumented nodes.
func genDAT2(seed int64, runSec, gapSec int64) []table {
	ctx := rdd.NewContext(1)
	f := facility.New(facility.Config{Racks: 1, NodesPerRack: 2, Seed: seed})
	nodes := f.Nodes()
	sched := sim.DAT2(f, nodes, runSec, gapSec)
	_, end := sched.Span()
	cc := sim.DefaultCounterConfig()
	cc.Seed = seed + 7
	return []table{
		collect(sim.SimulatePAPI(ctx, sched, nodes, 0, end+gapSec, cc, 1)),
		collect(sim.SimulateIPMI(ctx, sched, nodes, 0, end+gapSec, cc, 1)),
		collect(sim.CPUSpecs(ctx, nodes, cc, 1)),
	}
}

// fillerDims are the dimensions filler tables draw from. None of them can
// reach a dimension the Fig-5 or Fig-7 query names, so fillers widen the
// plan search without changing the plan it finds.
var (
	fillerDomains = []string{"user", "cluster", "filesystem", "network_link"}
	fillerValues  = [][2]string{{"humidity", "relative_humidity_percent"}, {"fan_speed", "rpm"}, {"current", "amperes"}, {"energy", "joules"}}
)

// genFillers builds count small tables over fillerDims, rows rows each.
func genFillers(seed int64, count, rows int) []table {
	rng := rand.New(rand.NewSource(seed))
	out := make([]table, count)
	for i := range out {
		// The second domain is one to three places after the first, so a
		// table never has two columns on one dimension.
		da, db := fillerDomains[i%4], fillerDomains[(i%4+1+i/4%3)%4]
		v := fillerValues[i%4]
		ca, cb, cv := fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i), fmt.Sprintf("v%02d", i)
		t := table{name: fmt.Sprintf("filler_%02d", i), rows: make([]value.Row, rows), schema: semantics.NewSchema(
			ca, semantics.IDDomain(da),
			cb, semantics.IDDomain(db),
			cv, semantics.ValueEntry(v[0], v[1]),
		)}
		for r := range t.rows {
			t.rows[r] = value.Row{
				ca: value.Str(fmt.Sprintf("%s%04d", da, rng.Intn(rows))),
				cb: value.Str(fmt.Sprintf("%s%04d", db, r)),
				cv: value.Float(float64(rng.Intn(1000)) / 10),
			}
		}
		out[i] = t
	}
	return out
}

// writeCatalogDir writes tables as CSV files with schema sidecars, the
// on-disk form Store.LoadDir reads.
func writeCatalogDir(dir string, tables []table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ctx := rdd.NewContext(1)
	for _, t := range tables {
		ds := dataset.FromRows(ctx, t.name, t.rows, t.schema, 1)
		path := filepath.Join(dir, t.name+".csv")
		if err := wrappers.Write(ds, wrappers.Source{Format: "csv", Path: path}); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

// fig5Query is the §7.2 query: application names for jobs, heat for racks.
func fig5Query() engine.Query {
	return engine.Query{
		Domains: []string{"job", "rack"},
		Values:  []engine.QueryValue{{Dimension: "application"}, {Dimension: "temperature_difference"}},
	}
}

// fig7Query is the §7.3 query: active CPU frequency and counter rates.
func fig7Query() engine.Query {
	return engine.Query{
		Domains: []string{"cpu"},
		Values: []engine.QueryValue{
			{Dimension: "active_frequency"},
			{Dimension: "instructions/time_duration"},
			{Dimension: "memory_reads/time_duration"},
		},
	}
}

// Request kinds of the serve_mix schedule.
const (
	reqQuery = iota
	reqPlanMiss
	reqExecute
	reqRegister
	reqKinds
)

var reqKindNames = [reqKinds]string{"query", "plan_miss", "execute", "register"}

// serveBlock is the request mix, as counts per block of 20: 70 % warm
// queries, 15 % plan-cache misses, 10 % stored-plan executions, 5 % writes.
var serveBlock = [reqKinds]int{14, 3, 2, 1}

// request is one entry of a client's schedule. fig7 selects which of the two
// queries a query, plan or execute request carries.
type request struct {
	kind int
	fig7 bool
}

// genSchedule returns one seed-shuffled block per client. A client replays
// its block in a loop, so every 20 consecutive requests have the exact mix
// whatever the run length.
func genSchedule(seed int64, clients int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]request, clients)
	for c := range out {
		var block []request
		for kind, n := range serveBlock {
			for i := 0; i < n; i++ {
				// Two of three reads are the Fig-5 query, the rest Fig-7.
				block = append(block, request{kind: kind, fig7: kind != reqRegister && i%3 == 2})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out[c] = block
	}
	return out
}
