package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"scrubjay/internal/bench"
	"scrubjay/internal/cache"
	"scrubjay/internal/dataset"
	"scrubjay/internal/derive"
	"scrubjay/internal/engine"
	"scrubjay/internal/pipeline"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/stats"
	"scrubjay/internal/value"
)

// testStore builds a two-dataset catalog (jobs with a node list, node →
// rack layout) the engine can answer {job, rack} × application over via
// explode + natural join.
func testStore(t *testing.T) *Store {
	t.Helper()
	jobsSchema := semantics.NewSchema(
		"job_id", semantics.IDDomain("job"),
		"nodelist", semantics.IDListDomain("compute_node"),
		"job_name", semantics.ValueEntry("application", "identifier"),
	)
	layoutSchema := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"rack", semantics.IDDomain("rack"),
	)
	st := NewStore()
	_, err := st.Register("jobs", []value.Row{
		value.NewRow("job_id", value.Str("j1"), "nodelist", value.StrList("n1", "n2"), "job_name", value.Str("AMG")),
		value.NewRow("job_id", value.Str("j2"), "nodelist", value.StrList("n3"), "job_name", value.Str("mg.C")),
	}, jobsSchema, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Register("layout", []value.Row{
		value.NewRow("node", value.Str("n1"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n2"), "rack", value.Str("r17")),
		value.NewRow("node", value.Str("n3"), "rack", value.Str("r18")),
	}, layoutSchema, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func testQuery() engine.Query {
	return engine.Query{
		Domains: []string{"job", "rack"},
		Values:  []engine.QueryValue{{Dimension: "application"}},
	}
}

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream decodes an NDJSON row stream, failing on structural errors.
func readStream(t *testing.T, resp *http.Response) (StreamHeader, []value.Row, StreamTrailer) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var header *StreamHeader
	var trailer *StreamTrailer
	var rows []value.Row
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Header != nil:
			if header != nil {
				t.Fatal("duplicate stream header")
			}
			header = line.Header
		case line.Trailer != nil:
			trailer = line.Trailer
		case line.Row != nil:
			if header == nil || trailer != nil {
				t.Fatal("row outside header…trailer envelope")
			}
			rows = append(rows, line.Row)
		default:
			t.Fatalf("empty stream line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if header == nil || trailer == nil {
		t.Fatalf("incomplete stream: header=%v trailer=%v", header, trailer)
	}
	return *header, rows, *trailer
}

func decodeError(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body did not decode: %v", err)
	}
	return e.Error
}

func TestQueryStreamsRows(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	header, rows, trailer := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()}))
	if header.CacheHit {
		t.Error("first query should be a plan-cache miss")
	}
	if header.PlanHash == "" || len(header.Steps) == 0 {
		t.Errorf("header incomplete: %+v", header)
	}
	if len(rows) != 3 || trailer.Rows != 3 {
		t.Fatalf("rows = %d, trailer = %+v, want 3", len(rows), trailer)
	}
	for _, r := range rows {
		if r.Get("rack").StrVal() == "" {
			t.Errorf("row missing rack: %v", r)
		}
	}

	header2, _, _ := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()}))
	if !header2.CacheHit {
		t.Error("second query should hit the plan cache")
	}
	if header2.PlanHash != header.PlanHash {
		t.Error("plan hash changed between identical queries")
	}
}

func TestQueryLimit(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, rows, trailer := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery(), Limit: 1}))
	if len(rows) != 1 || !trailer.Truncated {
		t.Errorf("limit ignored: %d rows, trailer %+v", len(rows), trailer)
	}
}

func TestPlanOnlyAndExecute(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/plan", QueryRequest{Query: testQuery()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.CacheHit {
		t.Error("first plan should be a cache miss")
	}
	plan, err := pipeline.Decode(pr.Plan)
	if err != nil {
		t.Fatalf("returned plan does not decode: %v", err)
	}
	if plan.Hash() != pr.PlanHash {
		t.Error("plan hash mismatch")
	}
	if want := "natural_join"; pr.Steps[len(pr.Steps)-1] != want {
		t.Errorf("steps = %v, want last %q", pr.Steps, want)
	}

	resp2 := postJSON(t, ts.URL+"/v1/plan", QueryRequest{Query: testQuery()})
	var pr2 PlanResponse
	json.NewDecoder(resp2.Body).Decode(&pr2)
	resp2.Body.Close()
	if !pr2.CacheHit {
		t.Error("second plan should be a cache hit")
	}

	// The stored plan reproduces via /v1/execute.
	header, rows, _ := readStream(t, postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{Plan: pr.Plan}))
	if header.PlanHash != pr.PlanHash || len(rows) != 3 {
		t.Errorf("execute: hash %s rows %d", header.PlanHash, len(rows))
	}

	// Domain/value order must not matter to the cache key.
	q := engine.Query{
		Domains: []string{"rack", "job"},
		Values:  []engine.QueryValue{{Dimension: "application"}},
	}
	resp3 := postJSON(t, ts.URL+"/v1/plan", QueryRequest{Query: q})
	var pr3 PlanResponse
	json.NewDecoder(resp3.Body).Decode(&pr3)
	resp3.Body.Close()
	if !pr3.CacheHit {
		t.Error("reordered query should hit the plan cache")
	}

	// One request, one stat: the plan-only miss path re-checks the cache
	// inside resolvePlan but must not double-count. Four requests so far:
	// 1 cold plan (miss), 2 cached plans (hits), 1 execute of a stored
	// plan (no search, no lookup).
	hits, misses, _ := s.plans.stats()
	if hits != 2 || misses != 1 {
		t.Errorf("plan cache stats = %d hits / %d misses, want 2 / 1", hits, misses)
	}
}

func TestNoDerivationPathIs422(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	q := QueryRequest{Query: engine.Query{
		Domains: []string{"job"},
		Values:  []engine.QueryValue{{Dimension: "temperature"}},
	}}
	for i := 0; i < 2; i++ { // second round answers from the negative cache
		resp := postJSON(t, ts.URL+"/v1/query", q)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("round %d: status = %d, want 422", i, resp.StatusCode)
		}
		if msg := decodeError(t, resp); msg == "" {
			t.Error("empty error message")
		}
	}
	hits, _, _ := s.plans.stats()
	if hits == 0 {
		t.Error("failed search was not served from the negative cache")
	}
}

func TestBadRequests(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/query", QueryRequest{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty query: status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/execute", ExecuteRequest{Plan: json.RawMessage(`{"root":{"kind":"wat"}}`)})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad plan: status = %d", resp.StatusCode)
	}
}

func TestOverloadReturns429(t *testing.T) {
	s := New(testStore(t), Config{Workers: 1, MaxConcurrent: 1, MaxQueue: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the only executor slot so the next query finds queue room = 0.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	decodeError(t, resp)
}

func TestQueuedDeadlineReturns503(t *testing.T) {
	s := New(testStore(t), Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery(), TimeoutMillis: 50})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	decodeError(t, resp)
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := New(testStore(t), Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.StartDrain()
	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("draining query: status = %d", resp.StatusCode)
	}
	decodeError(t, resp)

	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: status = %d", hResp.StatusCode)
	}

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(buf.String(), "draining=1") {
		t.Errorf("metrics missing draining=1:\n%s", buf.String())
	}
}

// moveAllToR99 replaces testStore's layout through the served API, moving
// every node to rack r99.
func moveAllToR99(t *testing.T, url string) {
	t.Helper()
	layoutSchema := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"rack", semantics.IDDomain("rack"),
	)
	resp := postJSON(t, url+"/v1/catalog/datasets", RegisterRequest{
		Name:   "layout",
		Schema: layoutSchema,
		Rows: []value.Row{
			value.NewRow("node", value.Str("n1"), "rack", value.Str("r99")),
			value.NewRow("node", value.Str("n2"), "rack", value.Str("r99")),
			value.NewRow("node", value.Str("n3"), "rack", value.Str("r99")),
		},
		Replace: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status = %d: %s", resp.StatusCode, decodeError(t, resp))
	}
	resp.Body.Close()
}

// TestResultCacheFollowsReplace: a result-cache entry is named by the
// content its sources held, so after a Replace moves every node to r99 a
// server with a warm result cache answers r99, writing the same NDJSON
// rows, byte for byte, as a server without a cache.
func TestResultCacheFollowsReplace(t *testing.T) {
	c, err := cache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := testStore(t)
	cached := httptest.NewServer(New(st, Config{Workers: 2, Cache: c}).Handler())
	defer cached.Close()
	plain := httptest.NewServer(New(st, Config{Workers: 2}).Handler())
	defer plain.Close()
	// rowLines returns a query's NDJSON row lines: the body less its
	// header and trailer lines.
	rowLines := func(url string) []byte {
		resp := postJSON(t, url+"/v1/query", QueryRequest{Query: testQuery()})
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query: status %d, %v: %s", resp.StatusCode, err, body)
		}
		lines := bytes.SplitAfter(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		return bytes.Join(lines[1:len(lines)-1], nil)
	}
	if rows := rowLines(cached.URL); !bytes.Contains(rows, []byte("r18")) || c.Len() == 0 {
		t.Fatalf("warm-up: %d cache entries, rows:\n%s", c.Len(), rows)
	}
	moveAllToR99(t, cached.URL)
	got, want := rowLines(cached.URL), rowLines(plain.URL)
	if !bytes.Equal(got, want) {
		t.Errorf("cached server after Replace:\n%s\nuncached server:\n%s", got, want)
	}
	if bytes.Contains(want, []byte("r1")) || !bytes.Contains(want, []byte("r99")) {
		t.Errorf("uncached server after Replace still answers the old racks:\n%s", want)
	}
}

func TestHotReloadInvalidatesPlans(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	header, rows, _ := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()}))
	racks := map[string]bool{}
	for _, r := range rows {
		racks[r.Get("rack").StrVal()] = true
	}
	if !racks["r18"] {
		t.Fatalf("expected r18 before reload, got %v", racks)
	}

	moveAllToR99(t, ts.URL)

	header2, rows2, _ := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()}))
	if header2.CacheHit {
		t.Error("catalog reload should invalidate the plan cache")
	}
	if header2.CatalogVersion <= header.CatalogVersion {
		t.Error("catalog version did not advance")
	}
	for _, r := range rows2 {
		if got := r.Get("rack").StrVal(); got != "r99" {
			t.Errorf("rack = %q after reload, want r99", got)
		}
	}

	// GET /v1/catalog reflects the reload.
	cResp, err := http.Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var cat CatalogResponse
	json.NewDecoder(cResp.Body).Decode(&cat)
	cResp.Body.Close()
	if len(cat.Datasets) != 2 || cat.Version != header2.CatalogVersion {
		t.Errorf("catalog = %+v", cat)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := New(testStore(t), Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Missing schema.
	resp := postJSON(t, ts.URL+"/v1/catalog/datasets", RegisterRequest{Name: "x", Rows: []value.Row{value.NewRow("a", value.Str("1"))}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no schema: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Duplicate without replace.
	jobsSchema := semantics.NewSchema("job_id", semantics.IDDomain("job"))
	resp = postJSON(t, ts.URL+"/v1/catalog/datasets", RegisterRequest{Name: "jobs", Schema: jobsSchema})
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestConcurrentClients(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2, MaxConcurrent: 4, MaxQueue: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if (c+i)%2 == 0 {
					resp := postJSON(t, ts.URL+"/v1/plan", QueryRequest{Query: testQuery()})
					var pr PlanResponse
					err := json.NewDecoder(resp.Body).Decode(&pr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d plan: status %d err %v", c, resp.StatusCode, err)
						return
					}
					continue
				}
				_, rows, trailer := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()}))
				if len(rows) != 3 || trailer.Rows != 3 {
					errs <- fmt.Errorf("client %d query: %d rows, trailer %+v", c, len(rows), trailer)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if q := s.met.queries.Load(); q != clients*4 {
		t.Errorf("queries_total = %d, want %d", q, clients*4)
	}
}

// fig5Run is one served Fig-5 query plus the inputs it ran over.
type fig5Run struct {
	plan    *pipeline.Plan
	served  []value.Row
	rows    map[string][]value.Row
	parts   map[string]int
	schemas map[string]semantics.Schema
}

// runFig5 registers the Fig-5 case-study catalog over HTTP on a server with
// the given config, runs the Fig-5 query over HTTP, reruns the same plan
// in-process through pipeline.Execute over the same rows, and asserts the
// served rows are byte-identical JSON in the same order.
func runFig5(t *testing.T, srvCfg Config) fig5Run {
	t.Helper()
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks, cfg.NodesPerRack, cfg.AMGRack = 4, 6, 2
	cfg.DAT1DurationSec = 1800
	cfg.Partitions = 4
	build := rdd.NewContext(2)
	srcCat, schemas, _ := bench.DAT1Catalog(build, cfg)
	run := fig5Run{rows: map[string][]value.Row{}, parts: map[string]int{}, schemas: schemas}
	for name, ds := range srcCat {
		run.rows[name] = ds.Collect()
		run.parts[name] = ds.Rows().NumPartitions()
	}

	s := New(NewStore(), srvCfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, rows := range run.rows {
		resp := postJSON(t, ts.URL+"/v1/catalog/datasets", RegisterRequest{
			Name:       name,
			Schema:     schemas[name],
			Rows:       rows,
			Partitions: run.parts[name],
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d: %s", name, resp.StatusCode, decodeError(t, resp))
		}
		resp.Body.Close()
	}

	q := bench.Fig5Query()
	header, gotRows, trailer := readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: q}))
	if trailer.Error != "" {
		t.Fatalf("stream error: %s", trailer.Error)
	}
	if len(header.Steps) != len(bench.Fig5ExpectedSteps) {
		t.Fatalf("steps = %v, want %v", header.Steps, bench.Fig5ExpectedSteps)
	}
	for i, want := range bench.Fig5ExpectedSteps {
		if header.Steps[i] != want {
			t.Fatalf("steps[%d] = %q, want %q", i, header.Steps[i], want)
		}
	}

	// Library path over the same materialized rows.
	rc := rdd.NewContext(2)
	libCat := pipeline.Catalog{}
	for name, rows := range run.rows {
		libCat[name] = dataset.FromRows(rc, name, rows, schemas[name], run.parts[name])
	}
	dict := semantics.DefaultDictionary()
	eng := engine.New(dict, schemas, engine.DefaultOptions())
	plan, err := eng.Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Hash() != header.PlanHash {
		t.Errorf("plan hash: server %s, library %s", header.PlanHash, plan.Hash())
	}
	out, err := pipeline.Execute(context.Background(), rc, plan, libCat, dict, pipeline.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsColumnar() {
		t.Error("library result left the columnar representation")
	}
	libRows := out.Collect()
	if len(gotRows) != len(libRows) {
		t.Fatalf("server rows = %d, library rows = %d", len(gotRows), len(libRows))
	}
	for i := range libRows {
		want, err1 := json.Marshal(libRows[i])
		got, err2 := json.Marshal(gotRows[i])
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("row %d differs:\nserver:  %s\nlibrary: %s", i, got, want)
		}
	}
	run.plan, run.served = plan, gotRows
	return run
}

// replayRows executes a plan node by node through the derivations' row-path
// operators: sources are row-form datasets, so every Apply takes its
// reference branch, never the columnar kernels pipeline.Execute runs.
func replayRows(t *testing.T, rc *rdd.Context, n *pipeline.Node, run fig5Run, dict *semantics.Dictionary) *dataset.Dataset {
	t.Helper()
	var out *dataset.Dataset
	var err error
	switch n.Kind {
	case pipeline.KindSource:
		return dataset.FromRows(rc, n.Dataset, run.rows[n.Dataset], run.schemas[n.Dataset], run.parts[n.Dataset])
	case pipeline.KindTransform:
		in := replayRows(t, rc, n.Inputs[0], run, dict)
		tf, terr := derive.NewTransformation(n.Derivation, n.Params)
		if terr != nil {
			t.Fatal(terr)
		}
		out, err = tf.Apply(in, dict)
	default:
		l := replayRows(t, rc, n.Inputs[0], run, dict)
		r := replayRows(t, rc, n.Inputs[1], run, dict)
		c, cerr := derive.NewCombination(n.Derivation, n.Params)
		if cerr != nil {
			t.Fatal(cerr)
		}
		out, err = c.Apply(l, r, dict)
	}
	if err != nil {
		t.Fatalf("%s: %v", n.Derivation, err)
	}
	if out.IsColumnar() {
		t.Fatalf("%s: row replay left the row path", n.Derivation)
	}
	return out
}

// TestFig5BitForBit is the end-to-end reproducibility check: datasets
// registered over HTTP, queried over HTTP, must produce exactly the rows and
// plan the library path (engine.Solve + pipeline.Execute in-process)
// produces — same worker count, same partitioning, byte-identical row JSON
// in the same order. The served rows must also equal, as a multiset, a
// whole-plan replay through the row-path reference operators (row order may
// differ there: partition placement differs between the two paths).
func TestFig5BitForBit(t *testing.T) {
	run := runFig5(t, Config{Workers: 2})
	dict := semantics.DefaultDictionary()
	ref := replayRows(t, rdd.NewContext(2), run.plan.Root, run, dict).Collect()
	encode := func(rows []value.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = string(b)
		}
		sort.Strings(out)
		return out
	}
	got, want := encode(run.served), encode(ref)
	if len(got) != len(want) {
		t.Fatalf("served rows = %d, row reference rows = %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sorted row %d differs:\nserved:        %s\nrow reference: %s", i, got[i], want[i])
		}
	}
}

// TestFig5ServedStats: one served Fig-5 query feeds the statistics store
// the same per-step selectivities a row-by-row count gives — the recorder
// reads row counts, not batch counts, off the columnar path's traced stages.
func TestFig5ServedStats(t *testing.T) {
	st := stats.NewStore()
	runFig5(t, Config{Workers: 2, Stats: st})
	for _, c := range []struct {
		derivation string
		want       float64
	}{
		{"natural_join", 249.0 / 273},
		{"interpolation_join", 747.0 / 429},
	} {
		d, ok := st.Derivation(c.derivation)
		if !ok {
			t.Errorf("%s: no observation recorded", c.derivation)
			continue
		}
		if sel, ok := d.Selectivity(); !ok || math.Abs(sel-c.want) > 1e-9 {
			t.Errorf("%s selectivity = %v (ok=%v), want %.4f", c.derivation, sel, ok, c.want)
		}
	}
}

func TestMetricsRender(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readStream(t, postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: testQuery()}))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"queries_total=1", "executed_total=1", "rows_streamed_total=3",
		"plan_cache_misses=", "latency_p50_micros=", "latency_p99_micros=",
		"executor_queue_depth=0", "catalog_datasets=2", "draining=0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
