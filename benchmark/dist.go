package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"scrubjay/internal/cluster"
	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/engine"
	"scrubjay/internal/frame"
	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/shuffle"
	"scrubjay/internal/value"
)

// distWorkload is query_dist, the Fig-5 query end to end on a live cluster:
// every op builds a fresh engine, solves the query, executes the plan with
// cluster.Scheduler as the rdd.Placement over two in-process shuffle.Serve
// listeners on loopback TCP, and collects the rows. One caller.
//
// The time goes to exchange encode → push → barrier → fetch → decode plus
// explode and the interpolation join. Its natural join is many-to-one
// against the tiny layout table: the natjoin_batch kernel, used differently.
// Plan search is under 1 % of an op, so a planner change must not claim a
// gain here.
type distWorkload struct {
	size    dat1Size
	parts   int
	workers int
	warmups int

	tables  []table
	temps   []value.Row // rows of tempsTable, for the pivot probe
	dict    *semantics.Dictionary
	schemas map[string]semantics.Schema

	servers  []*shuffle.Server
	reg      *cluster.Registry
	met      *obs.Registry
	place    *timedPlacement
	rc       *rdd.Context // exchanges go through the cluster
	local    *rdd.Context // nil placement: the reference path
	cat      pipeline.Catalog
	localCat pipeline.Catalog
	probe    []*frame.Frame // the largest table's frames, for frameProbes
	wantRows int64
	plan     *pipeline.Plan
	memoHits int

	stageLog rddStats
}

func (w *distWorkload) clients() int          { return 1 }
func (w *distWorkload) tailQuantile() float64 { return 0.75 }
func (w *distWorkload) releaseInputs()        {}

// tempsTable is the largest DAT-1 table, the one the frame probes run on.
const tempsTable = "rack_temperatures"

// timedPlacement is the harness's span around the cluster layer: it times
// every Exchange of a traced op and counts its payload bytes.
type timedPlacement struct {
	inner rdd.Placement

	mu        sync.Mutex
	tr        *tracer // nil outside traced ops
	op, root  int
	exchanges int
	bytes     int64
}

func (p *timedPlacement) Exchange(ctx context.Context, stage string, numOut int, enc [][][]byte) ([][]byte, error) {
	p.mu.Lock()
	tr, op, root := p.tr, p.op, p.root
	p.mu.Unlock()
	if tr == nil {
		return p.inner.Exchange(ctx, stage, numOut, enc)
	}
	var n int64
	for _, src := range enc {
		for _, b := range src {
			n += int64(len(b))
		}
	}
	sp := tr.start("cluster.exchange", op, root)
	out, err := p.inner.Exchange(ctx, stage, numOut, enc)
	tr.end(sp)
	p.mu.Lock()
	p.exchanges++
	p.bytes += n
	p.mu.Unlock()
	return out, err
}

func (p *timedPlacement) scope(tr *tracer, op, root int) {
	p.mu.Lock()
	p.tr, p.op, p.root = tr, op, root
	p.mu.Unlock()
}

func (w *distWorkload) generate(seed int64) error {
	w.dict = semantics.DefaultDictionary()
	w.tables = genDAT1(seed, w.size)
	w.schemas = map[string]semantics.Schema{}
	for _, t := range w.tables {
		w.schemas[t.name] = t.schema
		if t.name == tempsTable {
			w.temps = t.rows
		}
	}
	return nil
}

func (w *distWorkload) setUp() error {
	w.met = obs.NewRegistry()
	w.reg = cluster.NewRegistry("benchmark", 10*time.Second, 2)
	for i := 0; i < 2; i++ {
		srv, err := shuffle.Serve("127.0.0.1:0", fmt.Sprintf("bench-w%d", i))
		if err != nil {
			return err
		}
		w.servers = append(w.servers, srv)
		if _, err := w.reg.Register(context.Background(), srv.Addr()); err != nil {
			return err
		}
	}
	w.place = &timedPlacement{inner: cluster.NewScheduler(w.reg, cluster.Options{Metrics: w.met})}
	w.local = rdd.NewContext(w.workers)
	w.rc = w.local.WithPlacement(w.place)
	w.cat, w.localCat = pipeline.Catalog{}, pipeline.Catalog{}
	for _, t := range w.tables {
		frames, ds := pivot(w.rc, t, w.parts)
		w.cat[t.name] = ds
		w.localCat[t.name] = dataset.FromFrames(w.local, t.name, frames, t.schema)
		if t.name == tempsTable {
			w.probe = frames
		}
	}
	// The local run of the same plan fixes the reference row count.
	rows, err := w.query(w.local, w.localCat, nil, 0, -1)
	if err != nil {
		return err
	}
	w.wantRows = int64(len(rows))
	for i := 0; i < w.warmups; i++ {
		if _, err := w.op(0, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *distWorkload) tearDown() {
	if w.reg != nil {
		w.reg.Close()
		w.reg = nil
	}
	for _, s := range w.servers {
		s.Close()
	}
	w.servers = nil
}

// query is one analyst query from nothing: fresh engine, plan search, plan
// execution on rc, rows collected.
func (w *distWorkload) query(rc *rdd.Context, cat pipeline.Catalog, tr *tracer, op, root int) ([]value.Row, error) {
	ctx := context.Background()
	sp := tr.start("engine.solve", op, root)
	e := engine.New(w.dict, w.schemas, engine.DefaultOptions())
	plan, err := e.Solve(ctx, fig5Query())
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.plan, w.memoHits = plan, e.MemoHits()
	sp = tr.start("pipeline.execute", op, root)
	out, err := pipeline.Execute(ctx, rc, plan, cat, w.dict, pipeline.ExecOptions{})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("rdd.collect", op, root)
	rows, err := rdd.Guard(func() []value.Row { return out.Collect() })
	tr.end(sp)
	return rows, err
}

func (w *distWorkload) op(_, i int, tr *tracer) (int64, error) {
	w.stageLog.begin(w.rc, tr)
	root := tr.start("op", i, -1)
	w.place.scope(tr, i, root)
	rows, err := w.query(w.rc, w.cat, tr, i, root)
	tr.end(root)
	w.place.scope(nil, 0, 0)
	w.stageLog.end(w.rc, tr)
	if err != nil {
		return 0, err
	}
	if int64(len(rows)) != w.wantRows {
		return 0, fmt.Errorf("distributed run returned %d rows, local run %d", len(rows), w.wantRows)
	}
	return w.wantRows, nil
}

// rowsJSON renders rows as the NDJSON the served API would stream.
func rowsJSON(rows []value.Row) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// verify holds the distributed output byte-identical, in order, to the local
// (nil-placement) run of the same plan.
func (w *distWorkload) verify() error {
	localRows, err := w.query(w.local, w.localCat, nil, 0, -1)
	if err != nil {
		return err
	}
	distRows, err := w.query(w.rc, w.cat, nil, 0, -1)
	if err != nil {
		return err
	}
	a, err := rowsJSON(localRows)
	if err != nil {
		return err
	}
	b, err := rowsJSON(distRows)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("distributed output (%d rows, %d bytes) differs from local output (%d rows, %d bytes)",
			len(distRows), len(b), len(localRows), len(a))
	}
	return nil
}

// replaySteps runs a solved plan over cat one derivation at a time through
// the public Apply of each step, forcing and caching every intermediate, and
// adds each step's time to derive.step_ms.<derivation>.
func replaySteps(n *pipeline.Node, cat pipeline.Catalog, dict *semantics.Dictionary, m metrics) (*dataset.Dataset, error) {
	if n.Kind == pipeline.KindSource {
		ds, ok := cat[n.Dataset]
		if !ok {
			return nil, fmt.Errorf("replay: catalog has no dataset %q", n.Dataset)
		}
		return ds, nil
	}
	in := make([]*dataset.Dataset, len(n.Inputs))
	for i, c := range n.Inputs {
		ds, err := replaySteps(c, cat, dict, m)
		if err != nil {
			return nil, err
		}
		in[i] = ds
	}
	var out *dataset.Dataset
	var err error
	t0 := time.Now()
	if n.Kind == pipeline.KindTransform {
		var t derive.Transformation
		if t, err = derive.NewTransformation(n.Derivation, n.Params); err == nil {
			out, err = t.Apply(in[0], dict)
		}
	} else {
		var c derive.Combination
		if c, err = derive.NewCombination(n.Derivation, n.Params); err == nil {
			out, err = c.Apply(in[0], in[1], dict)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", n.Derivation, err)
	}
	out.Cache().Count()
	name := "derive.step_ms." + n.Derivation
	if _, ok := perLayerUnits[name]; ok {
		m.set(name, m[name].Value+float64(time.Since(t0).Nanoseconds())/1e6, "ms")
	}
	return out, nil
}

// planProbes times what a stored plan costs before any row moves: decoding
// it and building its lineage.
func planProbes(rc *rdd.Context, plan *pipeline.Plan, cat pipeline.Catalog, dict *semantics.Dictionary, m metrics) error {
	data, err := plan.Encode()
	if err != nil {
		return err
	}
	m.set("pipeline.plan_decode_ms", timeMs(5, func() { _, err = pipeline.Decode(data) }), "ms")
	if err != nil {
		return err
	}
	m.set("pipeline.execute_ms", timeMs(5, func() {
		_, err = pipeline.Execute(context.Background(), rc, plan, cat, dict, pipeline.ExecOptions{})
	}), "ms")
	return err
}

// connProbes times raw shuffle.Conn round trips of a 1 MiB payload against
// one of the workload's own workers.
func connProbes(addr string, m metrics) error {
	ctx := context.Background()
	c, err := shuffle.Dial(ctx, addr, "benchmark-probe", 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	const id = "benchmark-probe"
	seq := 0
	putMs := timeMs(9, func() {
		if e := c.Put(ctx, id, 0, 0, seq, payload); e != nil {
			err = e
		}
		seq++
	})
	// Nine chunks are stored for destination 0, so a fetch merges 9 MiB.
	var fetched int
	fetchMs := timeMs(5, func() {
		b, e := c.Fetch(ctx, id, 0)
		if e != nil {
			err = e
		}
		fetched = len(b)
	})
	pingMs := timeMs(51, func() {
		if _, e := c.Ping(ctx); e != nil {
			err = e
		}
	})
	if e := c.Drop(ctx, id); e != nil && err == nil {
		err = e
	}
	if err != nil {
		return fmt.Errorf("conn probes: %w", err)
	}
	m.set("shuffle.put_mb_per_s", float64(len(payload))/1e6/(putMs/1e3), "MB/s")
	m.set("shuffle.fetch_mb_per_s", float64(fetched)/1e6/(fetchMs/1e3), "MB/s")
	m.set("shuffle.ping_us", pingMs*1e3, "us")
	return nil
}

func (w *distWorkload) layers(tr *tracer, run *runStats, m metrics) error {
	tracedP50 := median(run.latencies(true))
	if err := w.stageLog.report(m, tr, tracedP50, w.workers); err != nil {
		return fmt.Errorf("query_dist: %w", err)
	}
	n := float64(w.stageLog.ops)
	m.set("engine.solve_ms.fig5", median(tr.durationsMs("engine.solve")), "ms")
	m.set("engine.memo_hits", float64(w.memoHits), "count")

	var exchangeMs float64
	for _, d := range tr.durationsMs("cluster.exchange") {
		exchangeMs += d
	}
	m.set("cluster.exchange_ms_per_op", exchangeMs/n, "ms")
	m.set("cluster.exchanges_per_op", float64(w.place.exchanges)/n, "count")
	m.set("cluster.exchange_mb_per_op", float64(w.place.bytes)/1e6/n, "MB")
	m.set("cluster.exchange_share", exchangeMs/n/tracedP50, "ratio")
	m.set("cluster.retries", float64(w.met.Counter("cluster_task_retries_total").Load()), "count")
	m.set("cluster.stragglers", float64(w.met.Counter("cluster_straggler_backups_total").Load()), "count")

	var err error
	localMs := timeMs(5, func() {
		if _, e := w.query(w.local, w.localCat, nil, 0, -1); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	m.set("cluster.dist_over_local", median(run.latencies(false))/localMs, "ratio")

	if _, err := replaySteps(w.plan.Root, w.localCat, w.dict, m); err != nil {
		return err
	}
	if err := planProbes(w.local, w.plan, w.localCat, w.dict, m); err != nil {
		return err
	}
	// Here Execute is part of every op, and on a cluster it already runs
	// the exchanges the joins force: report the ops' own spans, not the
	// local probe.
	m.set("pipeline.execute_ms", median(tr.durationsMs("pipeline.execute")), "ms")
	if err := connProbes(w.servers[0].Addr(), m); err != nil {
		return err
	}
	return frameProbes(w.probe, []string{"rack"}, w.temps, m)
}
