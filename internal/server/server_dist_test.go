package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"scrubjay/internal/bench"
	"scrubjay/internal/cluster"
	"scrubjay/internal/obs"
	"scrubjay/internal/rdd"
	"scrubjay/internal/shuffle"
)

// distCluster builds a live 2-worker shuffle cluster for a server test.
func distCluster(t *testing.T, opts cluster.Options) (*cluster.Scheduler, []*shuffle.Server) {
	t.Helper()
	reg := cluster.NewRegistry("server-test", 2*time.Second, 2)
	t.Cleanup(reg.Close)
	servers := make([]*shuffle.Server, 2)
	for i := range servers {
		srv, err := shuffle.Serve("127.0.0.1:0", fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
		if _, err := reg.Register(t.Context(), srv.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return cluster.NewScheduler(reg, opts), servers
}

// TestFig5BitForBitDistributed extends the TestFig5BitForBit family to a
// live 2-worker cluster: the served query's shuffles cross real TCP through
// worker-equivalent shuffle servers, and every row must still be
// byte-identical JSON, in the same order, as the in-process library run.
func TestFig5BitForBitDistributed(t *testing.T) {
	met := obs.NewRegistry()
	sched, _ := distCluster(t, cluster.Options{Metrics: met})
	runFig5(t, Config{Workers: 2, Placement: sched})
	if n := met.Counter("cluster_exchanges_total").Load(); n == 0 {
		t.Fatal("no exchange crossed the cluster: the distributed path never ran")
	} else {
		t.Logf("exchanges=%d bytes=%d", n, met.Counter("cluster_shuffle_bytes_total").Load())
	}
}

// TestFig5BitForBitDistributedWorkerFailure injects a worker death at the
// first exchange's push/fetch barrier — after map outputs land, before any
// fetch — and requires the scheduler's retry (re-push to the survivor,
// re-fetch) to complete the query with the identical bit-for-bit result.
func TestFig5BitForBitDistributedWorkerFailure(t *testing.T) {
	var mu sync.Mutex
	killed := false
	var servers []*shuffle.Server
	sched, srvs := distCluster(t, cluster.Options{
		StragglerAfter: -1, // exercise the retry path, not the backup race
		PhaseHook: func(phase, stage string) {
			mu.Lock()
			defer mu.Unlock()
			if phase == "barrier" && !killed {
				killed = true
				servers[1].Close() // unannounced death: the fetch must discover it
			}
		},
	})
	servers = srvs
	runFig5(t, Config{Workers: 2, Placement: sched})
	mu.Lock()
	defer mu.Unlock()
	if !killed {
		t.Fatal("fault injection never fired: no exchange reached the barrier")
	}
	if live := sched.Registry().Live(); len(live) != 1 {
		t.Fatalf("expected 1 surviving worker, have %d", len(live))
	}
}

// TestFig5DistributedTrace is the cross-process tracing e2e: a Fig-5 query
// over 2 live TCP workers must yield ONE trace in which every exchange
// span carries at least one worker-origin child, grafted with correct
// parentage, served by GET /v1/trace/{id} and rendered by the timeline
// with per-worker rollups.
func TestFig5DistributedTrace(t *testing.T) {
	sched, _ := distCluster(t, cluster.Options{})
	cfg := bench.DefaultCaseStudyConfig()
	cfg.Racks, cfg.NodesPerRack, cfg.AMGRack = 4, 6, 2
	cfg.DAT1DurationSec = 1800
	cfg.Partitions = 4
	build := rdd.NewContext(2)
	srcCat, schemas, _ := bench.DAT1Catalog(build, cfg)

	s := New(NewStore(), Config{Workers: 2, Placement: sched})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, ds := range srcCat {
		resp := postJSON(t, ts.URL+"/v1/catalog/datasets", RegisterRequest{
			Name:       name,
			Schema:     schemas[name],
			Rows:       ds.Collect(),
			Partitions: ds.Rows().NumPartitions(),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d: %s", name, resp.StatusCode, decodeError(t, resp))
		}
		resp.Body.Close()
	}

	resp := postJSON(t, ts.URL+"/v1/query", QueryRequest{Query: bench.Fig5Query()})
	traceID := resp.Header.Get(TraceHeader)
	_, rows, trailer := readStream(t, resp)
	if trailer.Error != "" {
		t.Fatalf("stream error: %s", trailer.Error)
	}
	if len(rows) == 0 {
		t.Fatal("query returned no rows")
	}
	if traceID == "" {
		t.Fatal("no trace id on the query response")
	}

	tresp, err := http.Get(ts.URL + "/v1/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d", traceID, tresp.StatusCode)
	}
	data, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	a, err := obs.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("served trace failed validation: %v", err)
	}
	if a.TraceID != traceID {
		t.Fatalf("artifact trace id %q, want %q", a.TraceID, traceID)
	}

	exchanges := 0
	stageBytes := map[string]int64{}
	for _, ex := range a.Root.FindAll(obs.KindStage) {
		if !strings.HasSuffix(ex.Name, "|shuffle-fetch") {
			continue
		}
		exchanges++
		workerKids := 0
		phases := map[string]int{}
		for _, c := range ex.Children {
			phases[c.Kind]++
			origin, _ := c.Attrs[obs.AttrOrigin].(string)
			if !strings.HasPrefix(origin, "worker@") {
				continue
			}
			workerKids++
			if c.Kind != "worker-shuffle" {
				t.Fatalf("worker-origin child of %s has kind %q", ex.Name, c.Kind)
			}
			if got := c.AttrInt(obs.AttrParentSpan); got != int64(ex.ID) {
				t.Fatalf("worker subtree under %s records parent_span=%d, exchange span id is %d",
					ex.Name, got, ex.ID)
			}
		}
		if workerKids == 0 {
			t.Fatalf("exchange span %s has no worker-origin children", ex.Name)
		}
		// The scheduler names its five phases under the exchange span.
		for _, ph := range exchangePhases {
			if phases[ph] != 1 {
				t.Fatalf("exchange span %s has phase children %v, want one each of %v", ex.Name, phases, exchangePhases)
			}
		}
		stageBytes[strings.TrimSuffix(ex.Name, "|shuffle-fetch")] += ex.AttrInt(obs.AttrShuffleBytes)
	}
	if exchanges == 0 {
		t.Fatal("trace contains no exchange spans: the distributed path never ran")
	}
	// Driver-side encode and decode bracket every exchange, and both move
	// exactly the bytes the exchange shipped.
	for _, kind := range []string{"exchange-encode", "exchange-decode"} {
		spans := a.Root.FindAll(kind)
		if len(spans) != exchanges {
			t.Fatalf("%d %s spans, want one per exchange (%d)", len(spans), kind, exchanges)
		}
		got := map[string]int64{}
		for _, sp := range spans {
			if sp.AttrInt("elements") <= 0 {
				t.Fatalf("%s span %s records no elements", kind, sp.Name)
			}
			got[sp.Name] += sp.AttrInt("bytes")
		}
		if !reflect.DeepEqual(got, stageBytes) {
			t.Fatalf("%s bytes per stage %v, exchange spans shipped %v", kind, got, stageBytes)
		}
	}

	tl := a.Timeline()
	if !strings.Contains(tl, "↳ worker@") {
		t.Fatalf("timeline lacks per-worker rollup lines:\n%s", tl)
	}
	if !strings.Contains(tl, "origin=driver") || !strings.Contains(tl, "origin=worker@") {
		t.Fatalf("timeline lacks origin columns:\n%s", tl)
	}

	// A span whose trace has no id carries no trace context over the wire:
	// the workers record nothing, so there is nothing to collect and no
	// collect-spans phase, while the other four phases still record.
	untraced := obs.NewTracer("", nil).Start(obs.KindStage, "untraced|shuffle-fetch")
	enc := [][][]byte{{[]byte("a"), []byte("b")}, {nil, []byte("c")}}
	if _, err := sched.Exchange(obs.ContextWithSpan(t.Context(), untraced), "untraced", 2, enc); err != nil {
		t.Fatal(err)
	}
	untraced.End()
	phases := map[string]int{}
	for _, c := range untraced.Children() {
		phases[c.Kind()]++
	}
	for _, ph := range exchangePhases {
		if want := ph != "collect-spans"; (phases[ph] == 1) != want {
			t.Fatalf("untraced exchange has phase children %v, want one each of %v but collect-spans", phases, exchangePhases)
		}
	}
}

// exchangePhases are the children cluster.Scheduler.Exchange opens under a
// traced exchange span.
var exchangePhases = []string{"push", "barrier", "fetch", "collect-spans", "drop"}
