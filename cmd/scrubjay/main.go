// Command scrubjay is ScrubJay's one binary. Analysts load annotated
// datasets from a catalog directory, answer dimension queries by deriving a
// processing pipeline (§5), execute or store plans (§5.4) and inspect the
// semantic dictionary; the same binary runs the query-serving daemon, the
// shuffle workers of a distributed run, the synthetic case-study data
// generator and the serving load driver.
//
// Subcommands (scrubjay help lists their flags):
//
//	query        solve a dimension query and execute its derivation sequence
//	run          execute a stored derivation sequence
//	serve        serve queries over HTTP until SIGINT/SIGTERM, then drain
//	worker       serve a shard worker's shuffle exchange until SIGINT/SIGTERM
//	gen          write the synthetic DAT-1/DAT-2 case-study catalogs
//	load         drive concurrent load against a running serve
//	trace        render or check a trace artifact
//	show         print a wrapped dataset
//	dict         list the semantic dictionary
//	formats      list the wrapper formats
//	derivations  list the derivation functions
//
// With -server, query and run become thin clients of a running serve: the
// same request/response structs ride HTTP instead of calling the library
// in-process. Exit status is 0 on success, 1 on failure and 2 on a bad
// invocation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"scrubjay/internal/catalog"
	"scrubjay/internal/cluster"
	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/engine"
	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/server"
	"scrubjay/internal/stats"
	"scrubjay/internal/wrappers"
)

// command is one subcommand: its name, its flag synopsis for usage, and
// its body. A body gets the process context, cancelled on SIGINT/SIGTERM.
type command struct {
	name, synopsis string
	run            func(ctx context.Context, args []string) error
}

var commands = []command{
	{"query", "-catalog DIR|-server URL -domains a,b -values x,y[:units] [-plan out.json] [-out FMT:PATH] [-window SEC] [-cache DIR] [-stats FILE] [-shuffle-workers ADDR,...] [-explain|-explain-json] [-trace out.trace.json]", cmdQuery},
	{"run", "-catalog DIR|-server URL -plan plan.json [-out FMT:PATH] [-cache DIR]", cmdRun},
	{"serve", "-catalog DIR [-addr HOST:PORT] [-addr-file PATH] [-workers N] [-max-concurrent N] [-max-queue N] [-cache DIR] [-stats FILE] [-window SEC] [-default-timeout-ms N] [-max-timeout-ms N] [-drain-ms N] [-trace-ring N] [-debug-addr HOST:PORT] [-debug-addr-file PATH] [-shuffle-workers ADDR,...]", cmdServe},
	{"worker", "[-addr HOST:PORT] [-addr-file PATH] [-id NAME]", cmdWorker},
	{"gen", "-out DIR [-dat 1|2] [-format jsonl|csv] [-racks N] [-nodes-per-rack N] [-amg-rack N] [-duration SEC] [-run SEC] [-gap SEC] [-seed N] [-with-network] [-with-fs]", cmdGen},
	{"load", "-server URL [-clients N] [-requests N] [-domains a,b] [-values x,y[:units]] [-window SEC] [-limit N] [-timeout-ms N] [-plan-every N] [-expect-rejections]", cmdLoad},
	{"trace", "FILE|TRACE-ID [-server URL] [-check]", cmdTrace},
	{"show", "-in FMT:PATH [-n 20]", cmdShow},
	{"dict", "", cmdDict},
	{"formats", "", cmdFormats},
	{"derivations", "", cmdDerivations},
}

// usageError is a bad invocation: main exits 2 for it and 1 for any other
// error.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage(os.Stderr)
		return
	}
	cmd, ok := lookup(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "scrubjay: unknown command %q\n", name)
		usage(os.Stderr)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := cmd.run(ctx, os.Args[2:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubjay:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func lookup(name string) (command, bool) {
	for _, c := range commands {
		if c.name == name {
			return c, true
		}
	}
	return command{}, false
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage:")
	for _, c := range commands {
		fmt.Fprintf(w, "  scrubjay %-11s %s\n", c.name, c.synopsis)
	}
}

// parseQuery builds a query from the -domains and -values flags: comma
// lists, each value optionally DIM:UNITS.
func parseQuery(domains, values string) engine.Query {
	q := engine.Query{}
	for _, d := range strings.Split(domains, ",") {
		if d = strings.TrimSpace(d); d != "" {
			q.Domains = append(q.Domains, d)
		}
	}
	for _, v := range strings.Split(values, ",") {
		if v = strings.TrimSpace(v); v != "" {
			qv := engine.QueryValue{Dimension: v}
			if i := strings.Index(v, ":"); i > 0 {
				qv = engine.QueryValue{Dimension: v[:i], Units: v[i+1:]}
			}
			q.Values = append(q.Values, qv)
		}
	}
	return q
}

// parseSink parses "FMT:PATH" (or "kv:DIR:TABLE") into a wrappers.Source.
func parseSink(spec string) (wrappers.Source, error) {
	i := strings.Index(spec, ":")
	if i <= 0 {
		return wrappers.Source{}, fmt.Errorf("bad sink spec %q (want FMT:PATH)", spec)
	}
	format, rest := spec[:i], spec[i+1:]
	if format == "kv" {
		j := strings.LastIndex(rest, ":")
		if j <= 0 || j == len(rest)-1 {
			return wrappers.Source{}, fmt.Errorf("bad kv spec %q (want kv:DIR:TABLE)", spec)
		}
		return wrappers.Source{Format: "kv", Path: rest[:j], Table: rest[j+1:]}, nil
	}
	return wrappers.Source{Format: format, Path: rest}, nil
}

func cmdQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	catalogDir := fs.String("catalog", "", "catalog directory")
	domains := fs.String("domains", "", "comma-separated domain dimensions")
	values := fs.String("values", "", "comma-separated value dimensions, each optionally DIM:UNITS")
	planOut := fs.String("plan", "", "write the derivation sequence as JSON to this path")
	out := fs.String("out", "", "unwrap the result to FMT:PATH")
	window := fs.Float64("window", 120, "interpolation-join window in seconds")
	cacheDir := fs.String("cache", "", "enable the derivation-result cache in this directory")
	show := fs.Int("show", 10, "print up to this many result rows")
	explain := fs.Bool("explain", false, "print the engine's search trace")
	explainJSON := fs.Bool("explain-json", false, "print the search trace plus per-step estimated and actual costs as JSON")
	statsPath := fs.String("stats", "", "statistics store file: loaded (or created) before planning, observations saved back after execution")
	traceOut := fs.String("trace", "", "record a full execution trace and write the JSON artifact to this path")
	serverURL := fs.String("server", "", "query a running scrubjay serve instead of the local library")
	shuffleWorkers := fs.String("shuffle-workers", "", "comma-separated scrubjay worker exchange addresses; when set, shuffles run through the worker cluster")
	fs.Parse(args)
	if *catalogDir == "" && *serverURL == "" {
		return fmt.Errorf("query: -catalog (or -server) is required")
	}
	q := parseQuery(*domains, *values)

	if *serverURL != "" {
		if *explain || *explainJSON {
			fmt.Fprintln(os.Stderr, "scrubjay: -explain is unavailable in -server mode (search runs remotely; fetch the trace instead)")
		}
		if *statsPath != "" {
			fmt.Fprintln(os.Stderr, "scrubjay: ignoring -stats in -server mode (the server owns its statistics store)")
		}
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "scrubjay: ignoring -trace in -server mode (use `scrubjay trace ID -server URL`)")
		}
		if *cacheDir != "" {
			fmt.Fprintln(os.Stderr, "scrubjay: ignoring -cache in -server mode (the server owns the result cache)")
		}
		return serverQuery(*serverURL, q, *window, *planOut, *out, *show)
	}

	env, err := server.OpenEnv(ctx, server.EnvOptions{
		ShuffleWorkers: *shuffleWorkers,
		Cluster:        faultOptions(),
		CacheDir:       *cacheDir,
		StatsPath:      *statsPath,
	})
	if err != nil {
		return err
	}
	defer env.Close()
	rc := rdd.NewContext(0)
	if p := env.Placement(); p != nil {
		rc = rc.WithPlacement(p)
		fmt.Fprintf(os.Stderr, "shuffle cluster: %d workers\n", len(env.Sched.Registry().Workers()))
	}
	dict := semantics.DefaultDictionary()
	cat, schemas, err := catalog.Load(rc, *catalogDir)
	if err != nil {
		return err
	}

	// -stats: profile the catalog into the statistics store, so the engine
	// costs candidates against real cardinalities. Observations from this
	// run are merged and saved back afterwards.
	st := env.Stats
	if st != nil {
		catalog.Ingest(st, cat, schemas)
	}

	// -trace, -explain-json, and -stats all record the run under a query
	// span (the latter two need executed-step actuals); otherwise tr is nil
	// and every span below is the free nil span.
	var tr *obs.Tracer
	if *traceOut != "" || *explainJSON || st != nil {
		tr = obs.NewTracer("local", nil)
	}
	qspan := tr.Start(obs.KindQuery, "query")

	opts := engine.DefaultOptions()
	opts.WindowSeconds = *window
	opts.Stats = st
	e := engine.New(dict, schemas, opts)
	search := qspan.Child(obs.KindSearch, "plan-search")
	plan, trace, err := e.SolveTraced(ctx, q)
	trace.AttachTo(search)
	search.End()
	if *explain && trace != nil {
		fmt.Printf("search trace:\n%s", trace)
	}
	if err != nil {
		// The search failed: with -explain-json there are no steps to
		// report, so emit the search trace alone.
		if *explainJSON && trace != nil {
			if data, jerr := json.MarshalIndent(trace, "", "  "); jerr == nil {
				fmt.Printf("%s\n", data)
			}
		}
		return err
	}
	qspan.SetStr(obs.AttrPlanHash, plan.Hash())
	fmt.Printf("query: %s\nderivation sequence:\n%s", q, plan)

	if *planOut != "" {
		data, err := plan.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}

	exec := qspan.Child(obs.KindExec, "execute")
	rc.SetSpan(exec)
	result, err := pipeline.Execute(ctx, rc, plan, cat, dict, pipeline.ExecOptions{Cache: env.Cache})
	if err != nil {
		return err
	}
	emitErr := emit(result, *out, *show)
	exec.End()
	qspan.End()
	var art *obs.Artifact
	if tr != nil {
		art = tr.Artifact()
	}
	if st != nil && art != nil {
		n := stats.Recorder{Store: st}.Record(plan, art.Root, nil)
		if err := env.SaveStats(); err != nil {
			return err
		}
		fmt.Printf("stats: %d observations recorded, epoch %d, saved to %s\n", n, st.Epoch(), *statsPath)
	}
	if *explainJSON {
		data, jerr := json.MarshalIndent(explainReport(q, plan, trace, art, st), "", "  ")
		if jerr != nil {
			return jerr
		}
		fmt.Printf("%s\n", data)
	}
	if art != nil && *traceOut != "" {
		data, err := art.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	return emitErr
}

// explainStep pairs one executed plan step's estimated cost (stamped by the
// cost-based planner when a statistics store is attached) with the actual
// observed from the execution trace.
type explainStep struct {
	Name     string                 `json:"name"`
	Estimate *pipeline.StepEstimate `json:"estimate,omitempty"`
	Actual   *stats.StepActual      `json:"actual,omitempty"`
}

// explainDoc is the -explain-json output: the engine's search trace plus
// per-step estimate-vs-actual rows in execution order.
type explainDoc struct {
	Query      string        `json:"query"`
	PlanHash   string        `json:"plan_hash"`
	StatsEpoch int64         `json:"stats_epoch,omitempty"`
	Search     *engine.Trace `json:"search,omitempty"`
	Steps      []explainStep `json:"steps,omitempty"`
}

func explainReport(q engine.Query, plan *pipeline.Plan, trace *engine.Trace, art *obs.Artifact, st *stats.Store) explainDoc {
	doc := explainDoc{
		Query:      fmt.Sprintf("%s", q),
		PlanHash:   plan.Hash(),
		StatsEpoch: st.Epoch(),
		Search:     trace,
	}
	// Non-source nodes in execution (post) order — the same order
	// stats.Actuals reconstructs step actuals from the trace.
	var nodes []*pipeline.Node
	var walk func(*pipeline.Node)
	walk = func(n *pipeline.Node) {
		if n == nil || n.Kind == pipeline.KindSource {
			return
		}
		for _, in := range n.Inputs {
			walk(in)
		}
		nodes = append(nodes, n)
	}
	walk(plan.Root)
	var actuals []stats.StepActual
	if art != nil {
		var srcRows map[string]int64
		if st != nil {
			srcRows = map[string]int64{}
			for _, s := range stats.NodeSources(plan.Root) {
				if t, ok := st.Table(s); ok {
					srcRows[s] = t.Rows
				}
			}
		}
		actuals = stats.Actuals(plan, art.Root, srcRows)
	}
	for i, n := range nodes {
		step := explainStep{Name: n.Derivation, Estimate: n.Estimate}
		if i < len(actuals) {
			a := actuals[i]
			step.Actual = &a
		}
		doc.Steps = append(doc.Steps, step)
	}
	return doc
}

// faultOptions builds the cluster options for -shuffle-workers, wiring in
// the CI fault injection hook: when SCRUBJAY_FAULT_KILL_PID names a worker
// process, it is SIGKILLed at the first exchange's push/fetch barrier —
// after map outputs land on it, before any fetch — so the smoke test can
// prove the scheduler discovers the death and retries onto a survivor
// mid-query. Unset (the normal case), the options are zero.
func faultOptions() cluster.Options {
	opts := cluster.Options{}
	pid, err := strconv.Atoi(os.Getenv("SCRUBJAY_FAULT_KILL_PID"))
	if err != nil || pid <= 0 {
		return opts
	}
	var once sync.Once
	opts.PhaseHook = func(phase, _ string) {
		if phase == "barrier" {
			once.Do(func() {
				if p, err := os.FindProcess(pid); err == nil {
					p.Kill()
				}
			})
		}
	}
	return opts
}

// serverQuery answers a query through a running serve: one /v1/plan
// call for the derivation sequence (so -plan still works), then a
// /v1/execute of that exact plan, streamed back as rows.
func serverQuery(serverURL string, q engine.Query, window float64, planOut, out string, show int) error {
	cl := &server.Client{BaseURL: serverURL}
	pr, err := cl.Plan(server.QueryRequest{Query: q, WindowSeconds: window})
	if err != nil {
		return err
	}
	plan, err := pipeline.Decode(pr.Plan)
	if err != nil {
		return fmt.Errorf("server returned an undecodable plan: %w", err)
	}
	fmt.Printf("query: %s\nplan cache: hit=%v search=%dµs\nderivation sequence:\n%s",
		q, pr.CacheHit, pr.SearchMicros, plan)
	if planOut != "" {
		if err := os.WriteFile(planOut, pr.Plan, 0o644); err != nil {
			return err
		}
		fmt.Printf("plan written to %s\n", planOut)
	}
	return serverExecute(cl, pr.Plan, out, show)
}

// serverExecute runs a serialized plan remotely and renders the streamed
// result like the library path does.
func serverExecute(cl *server.Client, plan []byte, out string, show int) error {
	header, rows, _, err := cl.Execute(server.ExecuteRequest{Plan: plan})
	if err != nil {
		return err
	}
	if header.TraceID != "" {
		fmt.Printf("trace: %s (scrubjay trace %s -server %s)\n", header.TraceID, header.TraceID, cl.BaseURL)
	}
	result := dataset.FromRows(rdd.NewContext(0), "result", rows, header.Schema, 0)
	return emit(result, out, show)
}

func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	catalogDir := fs.String("catalog", "", "catalog directory")
	planPath := fs.String("plan", "", "derivation sequence JSON")
	out := fs.String("out", "", "unwrap the result to FMT:PATH")
	cacheDir := fs.String("cache", "", "enable the derivation-result cache in this directory")
	show := fs.Int("show", 10, "print up to this many result rows")
	serverURL := fs.String("server", "", "execute on a running scrubjay serve instead of the local library")
	fs.Parse(args)
	if (*catalogDir == "" && *serverURL == "") || *planPath == "" {
		return fmt.Errorf("run: -plan and -catalog (or -server) are required")
	}
	data, err := os.ReadFile(*planPath)
	if err != nil {
		return err
	}
	plan, err := pipeline.Decode(data)
	if err != nil {
		return err
	}
	if *serverURL != "" {
		return serverExecute(&server.Client{BaseURL: *serverURL}, data, *out, *show)
	}
	env, err := server.OpenEnv(ctx, server.EnvOptions{CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	defer env.Close()
	rc := rdd.NewContext(0)
	cat, _, err := catalog.Load(rc, *catalogDir)
	if err != nil {
		return err
	}
	result, err := pipeline.Execute(ctx, rc, plan, cat, semantics.DefaultDictionary(), pipeline.ExecOptions{Cache: env.Cache})
	if err != nil {
		return err
	}
	return emit(result, *out, *show)
}

func emit(result *dataset.Dataset, out string, show int) error {
	fmt.Printf("result: %d rows, schema %s\n", result.Count(), result.Schema())
	if show > 0 {
		fmt.Print(result.Show(show))
	}
	if out != "" {
		sink, err := parseSink(out)
		if err != nil {
			return err
		}
		if err := wrappers.Write(result, sink); err != nil {
			return err
		}
		fmt.Printf("result written to %s\n", sink.Path)
	}
	return nil
}

// cmdTrace renders (or validates) a trace artifact: a local file from
// `scrubjay query -trace`, or a trace id fetched from a running serve.
func cmdTrace(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	serverURL := fs.String("server", "", "fetch the argument as a trace id from this scrubjay serve")
	check := fs.Bool("check", false, "validate the artifact schema instead of rendering")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("trace: a FILE (or, with -server, TRACE-ID) argument is required")
	}
	arg := fs.Arg(0)
	// Accept flags after the positional too (scrubjay trace ID -server URL).
	fs.Parse(fs.Args()[1:])
	if fs.NArg() != 0 {
		return fmt.Errorf("trace: exactly one FILE or TRACE-ID argument is allowed")
	}
	var art *obs.Artifact
	if *serverURL != "" {
		a, err := (&server.Client{BaseURL: *serverURL}).Trace(arg)
		if err != nil {
			return err
		}
		art = a
	} else {
		data, err := os.ReadFile(arg)
		if err != nil {
			return err
		}
		art, err = obs.DecodeArtifact(data)
		if err != nil {
			return fmt.Errorf("trace: %s: %w", arg, err)
		}
	}
	if *check {
		fmt.Printf("trace %s: %d spans, ok\n", art.TraceID, art.SpanCount())
		return nil
	}
	fmt.Print(art.Timeline())
	return nil
}

func cmdShow(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	in := fs.String("in", "", "input FMT:PATH")
	n := fs.Int("n", 20, "rows to display")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("show: -in is required")
	}
	src, err := parseSink(*in)
	if err != nil {
		return err
	}
	ds, err := wrappers.Read(rdd.NewContext(0), src)
	if err != nil {
		return err
	}
	fmt.Printf("schema: %s\n", ds.Schema())
	fmt.Print(ds.Show(*n))
	return nil
}

func cmdDict(context.Context, []string) error {
	dict := semantics.DefaultDictionary()
	fmt.Println("dimensions:")
	for _, n := range dict.DimensionNames() {
		d, _ := dict.LookupDimension(n)
		props := []string{}
		if d.Ordered {
			props = append(props, "ordered")
		} else {
			props = append(props, "unordered")
		}
		if d.Continuous {
			props = append(props, "continuous")
		} else {
			props = append(props, "discrete")
		}
		fmt.Printf("  %-24s %s\n", n, strings.Join(props, ","))
	}
	fmt.Println("units:")
	for _, n := range dict.Units.Names() {
		u, _ := dict.Units.Lookup(n)
		fmt.Printf("  %-24s dimension=%s scale=%g offset=%g\n", n, u.Dimension, u.Scale, u.Offset)
	}
	return nil
}

func cmdFormats(context.Context, []string) error {
	fmt.Println(strings.Join(wrappers.Formats(), "\n"))
	return nil
}

func cmdDerivations(context.Context, []string) error {
	fmt.Println("transformations:")
	for _, n := range derive.TransformationNames() {
		fmt.Println("  " + n)
	}
	fmt.Println("combinations:")
	for _, n := range derive.CombinationNames() {
		fmt.Println("  " + n)
	}
	return nil
}
