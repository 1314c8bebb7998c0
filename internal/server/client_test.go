package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"scrubjay/internal/engine"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func TestClientRoundTrip(t *testing.T) {
	s := New(testStore(t), Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	pr, err := cl.Plan(QueryRequest{Query: testQuery()})
	if err != nil {
		t.Fatal(err)
	}
	if pr.PlanHash == "" {
		t.Error("empty plan hash")
	}

	header, rows, trailer, err := cl.Query(QueryRequest{Query: testQuery()})
	if err != nil {
		t.Fatal(err)
	}
	if header.PlanHash != pr.PlanHash || len(rows) != 3 || trailer.Rows != 3 {
		t.Errorf("query: header %+v, %d rows", header, len(rows))
	}
	if !header.CacheHit {
		t.Error("query after plan should hit the plan cache")
	}

	_, rows2, _, err := cl.Execute(ExecuteRequest{Plan: pr.Plan})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2) != 3 {
		t.Errorf("execute rows = %d", len(rows2))
	}

	info, err := cl.Register(RegisterRequest{
		Name:   "extra",
		Schema: semantics.NewSchema("job_id", semantics.IDDomain("job")),
		Rows:   []value.Row{value.NewRow("job_id", value.Str("j9"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 1 {
		t.Errorf("register info = %+v", info)
	}
	cat, err := cl.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Datasets) != 3 {
		t.Errorf("catalog = %+v", cat)
	}
	// The response is the entry the store installed: a registration that
	// names no partition count gets one partition, not the request's 0.
	for _, d := range cat.Datasets {
		if d.Name == "extra" && !reflect.DeepEqual(d, info) {
			t.Errorf("register answered %+v, catalog holds %+v", info, d)
		}
	}
}

func TestClientErrorsClassify(t *testing.T) {
	s := New(testStore(t), Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := &Client{BaseURL: ts.URL}

	// Draining answers are HTTPError with Rejected() true.
	s.StartDrain()
	_, err := cl.Plan(QueryRequest{Query: testQuery()})
	var he *HTTPError
	if !errors.As(err, &he) || !he.Rejected() || he.RetryAfter == "" {
		t.Fatalf("draining err = %v", err)
	}
	s.draining.Store(false)

	// A search failure is an HTTPError that is not a rejection.
	hopeless := engine.Query{
		Domains: []string{"job"},
		Values:  []engine.QueryValue{{Dimension: "temperature"}},
	}
	_, err = cl.Plan(QueryRequest{Query: hopeless})
	if !errors.As(err, &he) || he.Rejected() || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("422 err = %v", err)
	}

	// A dead server is a transport error, not an HTTPError.
	dead := &Client{BaseURL: "http://127.0.0.1:1"}
	_, err = dead.Plan(QueryRequest{Query: testQuery()})
	if err == nil || errors.As(err, &he) {
		t.Fatalf("dead server err = %v", err)
	}
}

// TestClientDetectsBrokenStream cuts the connection mid-stream and checks
// the client reports StreamBrokenError (scrubjay load's "dropped" signal).
func TestClientDetectsBrokenStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"header":{"plan_hash":"x","steps":["source:a"],"schema":{}}}` + "\n"))
		w.Write([]byte(`{"row":{"a":{"t":"s","v":"1"}}}` + "\n"))
		// No trailer: simulates a connection cut by a non-graceful exit.
	}))
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	_, _, _, err := cl.Query(QueryRequest{Query: testQuery()})
	var broken *StreamBrokenError
	if !errors.As(err, &broken) {
		t.Fatalf("err = %v, want StreamBrokenError", err)
	}
}
