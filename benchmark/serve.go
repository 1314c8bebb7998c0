package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/engine"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/server"
)

// serveWorkload is serve_mix, §5.2 interactive serving with reads beside
// writes: Store.LoadDir of a generated CSV catalog (DAT-1, DAT-2 and filler
// tables), the daemon's handler behind httptest.NewServer, and min(nproc,4)
// closed-loop HTTP clients each replaying a seed-shuffled block of 20
// requests: 14 /v1/query (Fig-5 and Fig-7, NDJSON read in full and
// row-counted), 3 /v1/plan with a window never seen before (a plan-cache
// miss), 2 /v1/execute of a stored plan, and 1 POST /v1/catalog/datasets
// replacing a small table (it bumps the catalog version and so invalidates
// every cached plan).
//
// The ops are small, so server admission, the plan cache, engine search,
// frame.AppendRowJSON and HTTP dominate while the join kernels barely
// matter. The write share makes a read-path gain that slows reload, or the
// reverse, visible.
type serveWorkload struct {
	sz       sizes
	workers  int
	nclients int
	dir      string // scratch directory the CSV catalog is generated into

	tables   []table
	write    server.RegisterRequest // the table the write replaces
	schedule [][]request
	queries  [2]engine.Query

	store     *server.Store
	ts        *httptest.Server
	http      *http.Client
	plans     [2]json.RawMessage
	wantRows  [2]int64
	loadSec   float64
	windowSeq atomic.Int64

	mu       sync.Mutex
	byKind   [reqKinds][]float64 // traced-op latency, ms
	ttfb     []float64           // traced queries: time to first body byte, ms
	afterReg []float64           // traced queries that paid a cold search
	planHits [2]int              // queries answered from the plan cache: hits, total
	streamed int64               // NDJSON bytes read by traced queries
	streamMs float64
	rejected int
}

func (w *serveWorkload) clients() int          { return w.nclients }
func (w *serveWorkload) tailQuantile() float64 { return 0.95 }
func (w *serveWorkload) releaseInputs()        { w.tables = nil }

func (w *serveWorkload) generate(seed int64) error {
	w.tables = append(genDAT1(seed, w.sz.serve), genDAT2(seed, w.sz.serveDAT2[0], w.sz.serveDAT2[1])...)
	fillers := genFillers(seed, w.sz.fillers, w.sz.fillerRows)
	w.tables = append(w.tables, fillers...)
	f := fillers[0]
	w.write = server.RegisterRequest{Name: f.name, Schema: f.schema, Rows: f.rows, Partitions: 1, Replace: true}
	w.schedule = genSchedule(seed, w.nclients)
	w.queries = [2]engine.Query{fig5Query(), fig7Query()}
	return writeCatalogDir(w.dir, w.tables)
}

func (w *serveWorkload) setUp() error {
	t0 := time.Now()
	w.store = server.NewStore()
	if err := w.store.LoadDir(w.dir, w.workers); err != nil {
		return err
	}
	w.loadSec = time.Since(t0).Seconds()
	// TraceRing -1: the daemon's own tracing stays off; spans inside the
	// program are a later change.
	srv := server.New(w.store, server.Config{Workers: w.workers, TraceRing: -1})
	w.ts = httptest.NewServer(srv.Handler())
	w.http = w.ts.Client()
	// Warm-up: one stored plan and one executed query per query shape fix
	// the references and fill the plan cache; then the fixed warm-up ops.
	for q, query := range w.queries {
		var plan server.PlanResponse
		if err := w.postJSON("/v1/plan", server.QueryRequest{Query: query}, &plan); err != nil {
			return err
		}
		w.plans[q] = plan.Plan
		st, err := w.stream("/v1/query", server.QueryRequest{Query: query})
		if err != nil {
			return err
		}
		if st.rows == 0 {
			return fmt.Errorf("serve_mix: query %d returned no rows", q)
		}
		w.wantRows[q] = st.rows
	}
	for i := 0; i < w.sz.warmups*len(w.schedule[0]); i++ {
		if _, err := w.op(0, i, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) tearDown() {
	if w.ts != nil {
		w.ts.Close() // blocks until outstanding requests have finished
		w.ts = nil
	}
}

// post sends one JSON request. Any answer but 200 is an error: a 4xx/5xx,
// an admission rejection and a refused connection all count as failed ops.
func (w *serveWorkload) post(path string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := w.http.Post(w.ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort detail for the error text
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			w.mu.Lock()
			w.rejected++
			w.mu.Unlock()
		}
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (w *serveWorkload) postJSON(path string, body, out any) error {
	resp, err := w.post(path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// streamStats is what a client sees of one NDJSON row stream.
type streamStats struct {
	rows     int64
	bytes    int64
	cacheHit bool
	ttfbMs   float64
	streamMs float64 // first body byte to end of stream
}

var rowPrefix = []byte(`{"row":`)

// stream posts a query or execute request and reads the whole row stream,
// counting rows without decoding them. The stream must carry a header and a
// trailer, and the trailer's row count must match the rows received.
func (w *serveWorkload) stream(path string, body any) (streamStats, error) {
	var st streamStats
	t0 := time.Now()
	resp, err := w.post(path, body)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if _, err := br.Peek(1); err != nil {
		return st, fmt.Errorf("%s: empty stream: %w", path, err)
	}
	first := time.Now()
	st.ttfbMs = float64(first.Sub(t0).Nanoseconds()) / 1e6
	var header *server.StreamHeader
	var trailer *server.StreamTrailer
	for {
		line, err := br.ReadBytes('\n')
		st.bytes += int64(len(line))
		if len(line) > 0 {
			if bytes.HasPrefix(line, rowPrefix) || bytes.Equal(line, []byte("{}\n")) {
				st.rows++
			} else {
				var sl server.StreamLine
				if err := json.Unmarshal(line, &sl); err != nil {
					return st, fmt.Errorf("%s: undecodable stream line: %w", path, err)
				}
				if sl.Header != nil {
					header = sl.Header
				}
				if sl.Trailer != nil {
					trailer = sl.Trailer
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, fmt.Errorf("%s: stream broke after %d rows: %w", path, st.rows, err)
		}
	}
	st.streamMs = float64(time.Since(first).Nanoseconds()) / 1e6
	switch {
	case header == nil || trailer == nil:
		return st, fmt.Errorf("%s: stream ended without header or trailer after %d rows", path, st.rows)
	case trailer.Error != "":
		return st, fmt.Errorf("%s: %s", path, trailer.Error)
	case trailer.Rows != st.rows:
		return st, fmt.Errorf("%s: trailer says %d rows, stream carried %d", path, trailer.Rows, st.rows)
	}
	st.cacheHit = header.CacheHit
	return st, nil
}

func (w *serveWorkload) op(client, i int, tr *tracer) (int64, error) {
	block := w.schedule[client]
	req := block[i%len(block)]
	q := 0
	if req.fig7 {
		q = 1
	}
	opID := i*w.nclients + client
	sp := tr.start("server."+reqKindNames[req.kind], opID, -1)
	t0 := time.Now()
	var rows int64
	var st streamStats
	var err error
	switch req.kind {
	case reqQuery:
		st, err = w.stream("/v1/query", server.QueryRequest{Query: w.queries[q]})
		rows = st.rows
	case reqExecute:
		st, err = w.stream("/v1/execute", server.ExecuteRequest{Plan: w.plans[q]})
		rows = st.rows
	case reqPlanMiss:
		// A window no request has named before cannot be in the plan cache.
		window := 120 + float64(w.windowSeq.Add(1))/1000
		var plan server.PlanResponse
		err = w.postJSON("/v1/plan", server.QueryRequest{Query: w.queries[q], WindowSeconds: window}, &plan)
		if err == nil && (plan.CacheHit || len(plan.Steps) == 0) {
			err = fmt.Errorf("/v1/plan window %.3f: cache_hit=%v with %d steps, want a fresh search", window, plan.CacheHit, len(plan.Steps))
		}
	case reqRegister:
		var info server.DatasetInfo
		err = w.postJSON("/v1/catalog/datasets", w.write, &info)
		if err == nil && info.Rows != int64(len(w.write.Rows)) {
			err = fmt.Errorf("register: server stored %d rows of %d", info.Rows, len(w.write.Rows))
		}
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(sp)
	if err == nil && (req.kind == reqQuery || req.kind == reqExecute) && rows != w.wantRows[q] {
		err = fmt.Errorf("%s query %d: %d rows, want %d", reqKindNames[req.kind], q, rows, w.wantRows[q])
	}
	if tr != nil && err == nil {
		w.mu.Lock()
		w.byKind[req.kind] = append(w.byKind[req.kind], ms)
		if req.kind == reqQuery {
			w.ttfb = append(w.ttfb, st.ttfbMs)
			w.streamed += st.bytes
			w.streamMs += st.streamMs
			w.planHits[1]++
			if st.cacheHit {
				w.planHits[0]++
			} else {
				w.afterReg = append(w.afterReg, ms)
			}
		}
		w.mu.Unlock()
	}
	return rows, err
}

// verify compares each query's served stream with a library run of the same
// plan on a snapshot of the store: same rows, same bytes.
func (w *serveWorkload) verify() error {
	dict := semantics.DefaultDictionary()
	for q := range w.queries {
		plan, err := pipeline.Decode(w.plans[q])
		if err != nil {
			return err
		}
		rc := rdd.NewContext(w.workers)
		cat, _, _ := w.store.Snapshot(rc, true)
		out, err := pipeline.Execute(context.Background(), rc, plan, cat, dict, pipeline.ExecOptions{})
		if err != nil {
			return err
		}
		wantRows, wantSum := framesChecksum(out.Columnar().Frames().Collect())

		resp, err := w.post("/v1/execute", server.ExecuteRequest{Plan: w.plans[q]})
		if err != nil {
			return err
		}
		var gotRows int64
		var gotSum uint64
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			if line := sc.Bytes(); bytes.HasPrefix(line, rowPrefix) {
				gotSum = rowSum(gotSum, line[len(rowPrefix):len(line)-1])
				gotRows++
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return err
		}
		if gotRows != wantRows || gotSum != wantSum || gotRows != w.wantRows[q] {
			return fmt.Errorf("served query %d: %d rows checksum %x, library run %d rows checksum %x, reference %d rows",
				q, gotRows, gotSum, wantRows, wantSum, w.wantRows[q])
		}
	}
	return nil
}

func (w *serveWorkload) layers(tr *tracer, run *runStats, m metrics) error {
	if w.planHits[1] == 0 {
		return fmt.Errorf("serve_mix: no traced query completed")
	}
	for kind, name := range reqKindNames {
		// A full-length run traces hundreds of each kind; only a run cut to
		// a fraction of a second can miss the rare ones.
		if len(w.byKind[kind]) == 0 {
			fmt.Fprintf(os.Stderr, "serve_mix: no traced %s request completed; server.%s_p50_ms reads 0\n", name, name)
		}
		m.set("server."+name+"_p50_ms", median(w.byKind[kind]), "ms")
	}
	tail, _ := percentile(w.byKind[reqQuery], w.tailQuantile())
	m.set("server.query_tail_ms", tail, "ms")
	m.set("server.query_ttfb_p50_ms", median(w.ttfb), "ms")
	m.set("server.query_after_register_p50_ms", median(w.afterReg), "ms")
	m.set("server.plan_cache_hit_ratio", float64(w.planHits[0])/float64(w.planHits[1]), "ratio")
	m.set("server.rejected", float64(w.rejected), "count")
	if w.streamMs > 0 {
		m.set("server.stream_mb_per_s", float64(w.streamed)/1e6/(w.streamMs/1e3), "MB/s")
	}
	var loaded int64
	for _, d := range w.store.Info() {
		loaded += d.Rows
	}
	m.set("wrappers.load_rows_per_s", float64(loaded)/w.loadSec, "rows/s")

	// Planner probes: the Fig-5 search over its own three schemas and over
	// the whole served catalog.
	dict := semantics.DefaultDictionary()
	schemas, _ := w.store.Schemas()
	fig5 := map[string]semantics.Schema{}
	for _, name := range []string{"job_queue_log", "node_layout", tempsTable} {
		fig5[name] = schemas[name]
	}
	var plan *pipeline.Plan
	var memoHits int
	var err error
	solve := func(sch map[string]semantics.Schema) func() {
		return func() {
			e := engine.New(dict, sch, engine.DefaultOptions())
			if plan, err = e.Solve(context.Background(), fig5Query()); err == nil {
				memoHits = e.MemoHits()
			}
		}
	}
	m.set("engine.solve_ms.fig5", timeMs(9, solve(fig5)), "ms")
	if err != nil {
		return err
	}
	m.set("engine.solve_ms.cat24", timeMs(9, solve(schemas)), "ms")
	if err != nil {
		return err
	}
	m.set("engine.memo_hits", float64(memoHits), "count")

	rc := rdd.NewContext(w.workers)
	cat, _, _ := w.store.Snapshot(rc, true)
	if _, err := replaySteps(plan.Root, cat, dict, m); err != nil {
		return err
	}
	if err := planProbes(rc, plan, cat, dict, m); err != nil {
		return err
	}
	temps := cat[tempsTable]
	return frameProbes(temps.Frames().Collect(), []string{"rack"}, temps.Collect(), m)
}
