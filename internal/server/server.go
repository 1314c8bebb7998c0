package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"scrubjay/internal/cache"
	"scrubjay/internal/dataset"
	"scrubjay/internal/engine"
	"scrubjay/internal/frame"
	"scrubjay/internal/obs"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/wrappers"
)

// planCacheSize is the plan-cache LRU capacity.
const planCacheSize = 256

// statusClientClosed is the non-standard (nginx-convention) status for a
// request whose client went away before the answer was ready.
const statusClientClosed = 499

// Config tunes the daemon. Zero values select the documented defaults.
type Config struct {
	// Workers is the rdd parallelism per request (0 = GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds simultaneously executing searches/executions
	// (default 4); MaxQueue bounds requests waiting for a slot (default
	// 64; negative means no queue at all).
	MaxConcurrent int
	MaxQueue      int
	// DefaultTimeout applies when a request carries no timeout_millis
	// (default 30s); MaxTimeout clamps client-supplied timeouts (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// WindowSeconds is the default interpolation-join window (default 120).
	WindowSeconds float64
	// Cache, when non-nil, is the shared derivation-result cache.
	Cache *cache.Cache
	// Dict defaults to semantics.DefaultDictionary().
	Dict *semantics.Dictionary
	// TraceRing is how many recent query traces GET /v1/trace/{id} retains
	// (default 64; negative disables tracing entirely, leaving queries on
	// the nil-span fast path).
	TraceRing int
	// Placement, when non-nil, routes shuffle exchanges through a live
	// worker cluster (internal/cluster.Scheduler) instead of in-process
	// slice copies. Query results are bit-for-bit identical either way.
	Placement rdd.Placement
	// Stats, when non-nil, turns on cost-based planning: registered
	// datasets are profiled into it, the engine costs candidate plans
	// against it, executed query traces feed observations back through a
	// stats.Recorder, and the plan cache keys on its epoch. Strictly
	// opt-in — a nil store leaves planning byte-identical to the
	// structural heuristic.
	Stats *stats.Store
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.WindowSeconds <= 0 {
		c.WindowSeconds = 120
	}
	if c.TraceRing == 0 {
		c.TraceRing = 64
	} else if c.TraceRing < 0 {
		c.TraceRing = 0
	}
	if c.Dict == nil {
		c.Dict = semantics.DefaultDictionary()
	}
	return c
}

// Server is the serving core, independent of the listening socket: it
// exposes an http.Handler, and Daemon.Run wires it to an http.Server and
// the drain sequence.
type Server struct {
	cfg      Config
	store    *Store
	plans    *planCache
	adm      *admitter
	met      metrics
	traces   *obs.TraceRing
	traceSeq atomic.Int64
	draining atomic.Bool
}

// New builds a Server over a loaded catalog store.
func New(store *Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		store:  store,
		plans:  newPlanCache(planCacheSize),
		adm:    newAdmitter(cfg.MaxConcurrent, cfg.MaxQueue),
		met:    newMetrics(),
		traces: obs.NewTraceRing(cfg.TraceRing),
	}
	// Profile the catalog into the statistics store (no-op when disabled).
	// Datasets loaded before New and ones registered after both ingest:
	// AttachStats profiles what is already there and Register keeps it
	// current.
	store.AttachStats(cfg.Stats)
	s.registerGauges()
	return s
}

// Store exposes the catalog store (for registration outside HTTP).
func (s *Server) Store() *Store { return s.store }

// StartDrain flips the server into draining mode: every new query answers
// 503 with Retry-After and /healthz fails, while requests already admitted
// run to completion. Call before http.Server.Shutdown so load balancers
// and clients back off during the drain window.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Flush persists the derivation-result cache index (graceful shutdown).
func (s *Server) Flush() error {
	if s.cfg.Cache == nil {
		return nil
	}
	return s.cfg.Cache.Flush()
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, false)
	})
	mux.HandleFunc("POST /v1/plan", func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, true)
	})
	mux.HandleFunc("POST /v1/execute", s.serveExecute)
	mux.HandleFunc("GET /v1/catalog", s.serveCatalog)
	mux.HandleFunc("POST /v1/catalog/datasets", s.serveRegister)
	mux.HandleFunc("GET /v1/trace", s.serveTraceList)
	mux.HandleFunc("GET /v1/trace/{id}", s.serveTrace)
	mux.HandleFunc("GET /healthz", s.serveHealth)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.renderMetrics())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// rejectIfDraining answers 503 + Retry-After for new work during drain.
func (s *Server) rejectIfDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.met.rejected.Add(1)
	w.Header().Set("Retry-After", "2")
	writeError(w, http.StatusServiceUnavailable, "server is draining")
	return true
}

// rejectAdmission maps an admission failure to 429 (queue full) or 503
// (deadline expired while queued), both with Retry-After.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	s.met.rejected.Add(1)
	w.Header().Set("Retry-After", "1")
	if errors.Is(err, ErrOverloaded) {
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "timed out waiting for an executor slot: %v", err)
}

// errStatus classifies a search/execution error: deadline → 504, client
// cancellation → 499, a distributed-exchange failure → 500, anything else
// (no derivation path, bad plan) → 422.
func (s *Server) errStatus(err error) int {
	var execFail *rdd.ExecFailure
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.met.canceled.Add(1)
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		s.met.canceled.Add(1)
		return statusClientClosed
	case errors.As(err, &execFail):
		s.met.failed.Add(1)
		return http.StatusInternalServerError
	default:
		s.met.failed.Add(1)
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) timeout(millis int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if millis > 0 {
		d = time.Duration(millis) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// resolvePlan answers q from the plan cache or runs the engine's CSP
// search and caches the outcome. Callers must hold an executor slot (the
// search is the expensive part the admitter exists for). Cancellation
// errors are returned but never cached; genuine search failures are cached
// negatively so a hopeless query answers instantly on retry. counted says
// the caller already did a counted cache lookup for this request, so the
// internal re-check must not inflate the hit/miss stats. search, when
// non-nil, is the request's plan-search span: a fresh search runs traced
// and mirrors the engine's decisions onto it as events.
func (s *Server) resolvePlan(ctx context.Context, window float64, q engine.Query, counted bool, search *obs.Span) (planCacheEntry, int64, bool, error) {
	schemas, version := s.store.Schemas()
	key := planKey(version, s.cfg.Stats.Epoch(), window, q)
	lookup := s.plans.get
	if counted {
		lookup = s.plans.getQuiet
	}
	if e, ok := lookup(key); ok {
		search.SetBool(obs.AttrCacheHit, true)
		return e, version, true, e.err
	}
	opts := engine.DefaultOptions()
	opts.WindowSeconds = window
	opts.Stats = s.cfg.Stats
	eng := engine.New(s.cfg.Dict, schemas, opts)
	t0 := time.Now()
	var plan *pipeline.Plan
	var err error
	if search != nil {
		var etr *engine.Trace
		plan, etr, err = eng.SolveTraced(ctx, q)
		etr.AttachTo(search)
		search.SetBool(obs.AttrCacheHit, false)
	} else {
		plan, err = eng.Solve(ctx, q)
	}
	e := planCacheEntry{key: key, plan: plan, err: err, searchMicros: time.Since(t0).Microseconds()}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return e, version, false, err
	}
	s.plans.put(e)
	return e, version, false, err
}

func (s *Server) planResponse(e planCacheEntry, version int64, hit bool) (PlanResponse, error) {
	data, err := e.plan.Encode()
	if err != nil {
		return PlanResponse{}, err
	}
	return PlanResponse{
		PlanHash:       e.plan.Hash(),
		CacheHit:       hit,
		SearchMicros:   e.searchMicros,
		CatalogVersion: version,
		StatsEpoch:     s.cfg.Stats.Epoch(),
		Steps:          e.plan.Steps(),
		Plan:           data,
	}, nil
}

// serveQuery handles POST /v1/query (planOnly=false) and POST /v1/plan
// (planOnly=true).
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, planOnly bool) {
	if s.rejectIfDraining(w) {
		return
	}
	var req QueryRequest
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Domains) == 0 && len(req.Values) == 0 {
		writeError(w, http.StatusBadRequest, "query needs domains and/or values")
		return
	}
	window := s.cfg.WindowSeconds
	if req.WindowSeconds > 0 {
		window = req.WindowSeconds
	}
	execute := !planOnly && (req.Execute == nil || *req.Execute)
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMillis))
	defer cancel()
	start := time.Now()
	s.met.queries.Add(1)

	if !execute {
		// Plan-only requests hit the cache before the admitter: a cached
		// plan costs no CPU worth queueing for.
		key := planKey(s.store.Version(), s.cfg.Stats.Epoch(), window, req.Query)
		e, hit := s.plans.get(key)
		if !hit {
			if err := s.adm.acquire(ctx); err != nil {
				s.rejectAdmission(w, err)
				return
			}
			var err error
			var version int64
			e, version, hit, err = s.resolvePlan(ctx, window, req.Query, true, nil)
			s.adm.release()
			if err != nil {
				writeError(w, s.errStatus(err), "plan search: %v", err)
				return
			}
			s.respondPlan(w, e, version, hit, start)
			return
		}
		if e.err != nil {
			writeError(w, s.errStatus(e.err), "plan search: %v", e.err)
			return
		}
		s.respondPlan(w, e, s.store.Version(), true, start)
		return
	}

	// Execution path: one slot covers search (on a cache miss) and the
	// pipeline run, so a request never waits in line twice. The trace id is
	// set as a response header up front so even rejections and failures
	// point at their artifact.
	tr := s.newTracer()
	qspan := tr.Start(obs.KindQuery, "query")
	if id := tr.ID(); id != "" {
		w.Header().Set(TraceHeader, id)
	}
	if err := s.adm.acquire(ctx); err != nil {
		s.finishTrace(tr, qspan, err.Error())
		s.rejectAdmission(w, err)
		return
	}
	defer s.adm.release()
	search := qspan.Child(obs.KindSearch, "plan-search")
	e, _, hit, err := s.resolvePlan(ctx, window, req.Query, false, search)
	search.End()
	if err != nil {
		s.finishTrace(tr, qspan, err.Error())
		writeError(w, s.errStatus(err), "plan search: %v", err)
		return
	}
	qspan.SetStr(obs.AttrPlanHash, e.plan.Hash())
	s.execStream(ctx, w, e.plan, hit, e.searchMicros, req.Limit, start, tr, qspan)
}

func (s *Server) respondPlan(w http.ResponseWriter, e planCacheEntry, version int64, hit bool, start time.Time) {
	resp, err := s.planResponse(e, version, hit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding plan: %v", err)
		return
	}
	s.met.lat.ObserveDuration(time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

// serveExecute handles POST /v1/execute: reproduce a stored derivation
// sequence against the live catalog.
func (s *Server) serveExecute(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	var req ExecuteRequest
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	plan, err := pipeline.Decode(req.Plan)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad plan: %v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMillis))
	defer cancel()
	start := time.Now()
	s.met.queries.Add(1)
	tr := s.newTracer()
	qspan := tr.Start(obs.KindQuery, "execute")
	if id := tr.ID(); id != "" {
		w.Header().Set(TraceHeader, id)
	}
	if err := s.adm.acquire(ctx); err != nil {
		s.finishTrace(tr, qspan, err.Error())
		s.rejectAdmission(w, err)
		return
	}
	defer s.adm.release()
	qspan.SetStr(obs.AttrPlanHash, plan.Hash())
	s.execStream(ctx, w, plan, false, 0, req.Limit, start, tr, qspan)
}

// execStream runs a plan on a request-bound rdd context and streams the
// result as JSON lines: one header, one line per row, one trailer. Rows
// are fully collected before the header is written, so an error always
// arrives as a proper JSON status — a stream, once started, only ends
// early if the connection itself dies. The rdd context is scoped to the
// trace's execute span, so every derivation step, stage, and task lands in
// the query's artifact.
func (s *Server) execStream(ctx context.Context, w http.ResponseWriter, plan *pipeline.Plan, hit bool, searchMicros int64, limit int, start time.Time, tr *obs.Tracer, qspan *obs.Span) {
	exec := qspan.Child(obs.KindExec, "execute")
	rc := rdd.NewContext(s.cfg.Workers).WithGoContext(ctx)
	if s.cfg.Placement != nil {
		rc = rc.WithPlacement(s.cfg.Placement)
	}
	rc.SetSpan(exec)
	cat, _, version := s.store.Snapshot(rc, true)
	result, err := pipeline.Execute(ctx, rc, plan, cat, s.cfg.Dict, pipeline.ExecOptions{Cache: s.cfg.Cache})
	if err != nil {
		exec.End()
		s.finishTrace(tr, qspan, err.Error())
		writeError(w, s.errStatus(err), "execute: %v", err)
		return
	}
	frames, err := rdd.Guard(func() []*frame.Frame { return result.Frames().Collect() })
	if err != nil {
		exec.End()
		s.finishTrace(tr, qspan, err.Error())
		writeError(w, s.errStatus(err), "execute: %v", err)
		return
	}
	total := 0
	for _, f := range frames {
		total += f.NumRows()
	}
	emitted := total
	truncated := false
	if limit > 0 && total > limit {
		emitted = limit
		truncated = true
	}
	exec.SetInt(obs.AttrRowsOut, int64(emitted))
	exec.End()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.Encode(StreamLine{Header: &StreamHeader{
		PlanHash:       plan.Hash(),
		CacheHit:       hit,
		SearchMicros:   searchMicros,
		CatalogVersion: version,
		Steps:          plan.Steps(),
		Schema:         result.Schema(),
		TraceID:        tr.ID(),
	}})
	streamFrameRows(w, frames, emitted)
	enc.Encode(StreamLine{Trailer: &StreamTrailer{
		Rows:          int64(emitted),
		Truncated:     truncated,
		ElapsedMicros: time.Since(start).Microseconds(),
	}})
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	s.finishTrace(tr, qspan, "")
	// Close the feedback loop: a successful traced execution feeds its
	// observed per-step rows, time, and shuffle volume back into the
	// statistics store, so the next plan search is better informed.
	if s.cfg.Stats != nil && tr != nil {
		if art := tr.Artifact(); art != nil {
			n := stats.Recorder{Store: s.cfg.Stats}.Record(plan, art.Root, nil)
			s.met.statsObserved.Add(int64(n))
		}
	}
	s.met.executed.Add(1)
	s.met.rowsOut.Add(int64(emitted))
	s.met.lat.ObserveDuration(time.Since(start))
}

// streamFrameRows writes up to limit NDJSON row lines straight out of the
// result's column vectors, bypassing encoding/json and the row boxing it
// would require. The bytes must equal what encoding/json would write for a
// StreamLine{Row: row}, which Client decodes: AppendRowJSON renders cells in
// the same sorted-key, same-escaping form as Row.MarshalJSON, and a row with
// no present cells renders as the bare "{}" line the omitempty Row field
// produces.
func streamFrameRows(w http.ResponseWriter, frames []*frame.Frame, limit int) {
	left := limit
	var body []byte
	for _, f := range frames {
		if left == 0 {
			break
		}
		keys := f.EncodedKeys()
		n := f.NumRows()
		for i := 0; i < n && left > 0; i, left = i+1, left-1 {
			body = append(body[:0], `{"row":`...)
			body = f.AppendRowJSON(body, i, keys)
			if len(body) == len(`{"row":{}`) { // empty row: mirror omitempty
				body = append(body[:0], "{}\n"...)
			} else {
				body = append(body, "}\n"...)
			}
			w.Write(body)
		}
	}
}

func (s *Server) serveCatalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CatalogResponse{Version: s.store.Version(), Datasets: s.store.Info()})
}

// serveRegister handles POST /v1/catalog/datasets: hot-reload a dataset,
// either inline (rows + schema) or from server-visible storage (source).
// The catalog version bump invalidates every cached plan.
func (s *Server) serveRegister(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	var req RegisterRequest
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	name := req.Name
	var info DatasetInfo
	var err error
	switch {
	case req.Source != nil:
		src := *req.Source
		if name == "" {
			name = src.Name
		}
		if req.Partitions > 0 {
			src.Partitions = req.Partitions
		}
		ds, rerr := wrappers.Read(rdd.NewContext(s.cfg.Workers), src)
		if rerr != nil {
			writeError(w, http.StatusBadRequest, "loading source: %v", rerr)
			return
		}
		info, err = s.store.install(name, ds, req.Replace)
	case len(req.Schema) == 0:
		writeError(w, http.StatusBadRequest, "inline registration needs a schema")
		return
	default:
		// Validate the inline dataset against the dictionary before it can
		// poison searches.
		probe := dataset.FromRows(rdd.NewContext(s.cfg.Workers), name, req.Rows, req.Schema, req.Partitions)
		if verr := probe.Validate(s.cfg.Dict); verr != nil {
			writeError(w, http.StatusBadRequest, "invalid dataset: %v", verr)
			return
		}
		info, err = s.store.Register(name, req.Rows, req.Schema, req.Partitions, req.Replace)
	}
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	s.met.reloads.Add(1)
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) serveHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}
