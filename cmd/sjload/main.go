// Command sjload drives load against a running sjserved and reports
// throughput, latency quantiles, and plan-cache effectiveness. It spawns
// N concurrent clients over a shared start barrier, each issuing a mixed
// workload (plan-only searches and full executions of the same query),
// and classifies every request:
//
//	completed  2xx answered in full (stream trailer received)
//	rejected   fully answered 429/503 — deliberate load shedding
//	failed     fully answered other non-2xx (bad query, no path, timeout)
//	refused    transport error before any response (server gone)
//	dropped    stream began (HTTP 200) but broke before the trailer —
//	           an accepted query the server abandoned
//
// "dropped" is the graceful-shutdown acid test: a draining sjserved must
// finish every stream it started, so sjload exits 1 if dropped > 0.
// With -expect-rejections it also exits 1 unless at least one request was
// shed (used by CI to prove admission control engages under overload).
//
// Latency quantiles come from the same bounded histogram the server's
// /metrics endpoint uses (internal/obs), observed concurrently by every
// client — so the p50/p90/p99 sjload prints are directly comparable to
// the latency_p* keys the server reports.
//
//	sjload -server URL [-clients N] [-requests N] [-domains a,b]
//	       [-values x,y[:units]] [-window SEC] [-limit N]
//	       [-timeout-ms N] [-plan-every N] [-expect-rejections]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"scrubjay/internal/engine"
	"scrubjay/internal/obs"
	"scrubjay/internal/server"
)

type outcome int

const (
	completed outcome = iota
	rejected
	failed
	refused
	dropped
	outcomeCount
)

var outcomeNames = [outcomeCount]string{"completed", "rejected", "failed", "refused", "dropped"}

type result struct {
	outcome outcome
	latency time.Duration
	// planSearch distinguishes /v1/plan results for the cold/warm report.
	planSearch   bool
	cacheHit     bool
	searchMicros int64
	err          error
}

func main() {
	serverURL := flag.String("server", "", "sjserved base URL (required)")
	clients := flag.Int("clients", 8, "concurrent clients")
	requests := flag.Int("requests", 10, "requests per client")
	domains := flag.String("domains", "job,rack", "comma-separated query domains")
	values := flag.String("values", "application", "comma-separated query values, each optionally DIM:UNITS")
	window := flag.Float64("window", 0, "interpolation-join window override")
	limit := flag.Int("limit", 0, "cap streamed rows per query")
	timeoutMS := flag.Int64("timeout-ms", 30_000, "per-request deadline sent to the server")
	planEvery := flag.Int("plan-every", 4, "every Nth request is plan-only (0 = never)")
	expectRejections := flag.Bool("expect-rejections", false, "exit 1 unless the server shed load at least once")
	flag.Parse()
	if *serverURL == "" {
		fmt.Fprintln(os.Stderr, "sjload: -server is required")
		flag.Usage()
		os.Exit(2)
	}

	q := engine.Query{}
	for _, d := range strings.Split(*domains, ",") {
		if d = strings.TrimSpace(d); d != "" {
			q.Domains = append(q.Domains, d)
		}
	}
	for _, v := range strings.Split(*values, ",") {
		if v = strings.TrimSpace(v); v != "" {
			qv := engine.QueryValue{Dimension: v}
			if i := strings.Index(v, ":"); i > 0 {
				qv = engine.QueryValue{Dimension: v[:i], Units: v[i+1:]}
			}
			q.Values = append(q.Values, qv)
		}
	}

	// One histogram shared by every client goroutine — the same instrument
	// the server renders on /metrics, so the quantiles line up.
	lat := obs.NewRegistry().Histogram("latency", "micros")
	results := drive(*serverURL, *clients, *requests, q, *window, *limit, *timeoutMS, *planEvery, lat)
	counts := report(results, *clients, lat)

	if n := counts[dropped]; n > 0 {
		fmt.Printf("FAIL: %d in-flight queries dropped\n", n)
		os.Exit(1)
	}
	if *expectRejections && counts[rejected] == 0 {
		fmt.Println("FAIL: expected the server to shed load, but nothing was rejected")
		os.Exit(1)
	}
	if !*expectRejections && counts[completed] == 0 {
		fmt.Println("FAIL: no request completed")
		os.Exit(1)
	}
}

// drive fans out the workload: all clients block on one barrier, then each
// issues its requests back to back, observing completed latencies into the
// shared histogram as they land.
func drive(serverURL string, clients, requests int, q engine.Query, window float64, limit int, timeoutMS int64, planEvery int, lat *obs.Histogram) []result {
	results := make([]result, clients*requests)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &server.Client{BaseURL: serverURL}
			<-start
			for i := 0; i < requests; i++ {
				planOnly := planEvery > 0 && i%planEvery == 0
				req := server.QueryRequest{
					Query:         q,
					WindowSeconds: window,
					Limit:         limit,
					TimeoutMillis: timeoutMS,
				}
				t0 := time.Now()
				var r result
				if planOnly {
					pr, err := cl.Plan(req)
					r = classify(err)
					r.planSearch = true
					r.cacheHit, r.searchMicros = pr.CacheHit, pr.SearchMicros
				} else {
					header, _, _, err := cl.Query(req)
					r = classify(err)
					r.cacheHit, r.searchMicros = header.CacheHit, header.SearchMicros
				}
				r.latency = time.Since(t0)
				if r.outcome == completed {
					lat.ObserveDuration(r.latency)
				}
				results[c*requests+i] = r
			}
		}(c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	fmt.Printf("%d clients x %d requests in %v\n", clients, requests, elapsed.Round(time.Millisecond))
	return results
}

func classify(err error) result {
	if err == nil {
		return result{outcome: completed}
	}
	var broken *server.StreamBrokenError
	if errors.As(err, &broken) {
		return result{outcome: dropped, err: err}
	}
	var he *server.HTTPError
	if errors.As(err, &he) {
		if he.Rejected() {
			return result{outcome: rejected, err: err}
		}
		return result{outcome: failed, err: err}
	}
	return result{outcome: refused, err: err}
}

// report prints outcome counts, latency quantiles from the shared obs
// histogram, and the cold-vs-warm plan-search comparison, returning the
// outcome counts.
func report(results []result, clients int, lat *obs.Histogram) [outcomeCount]int {
	var counts [outcomeCount]int
	var coldSearch, warmSearch []int64
	var coldLat, warmLat []time.Duration
	firstErr := map[outcome]error{}
	var wall time.Duration
	for _, r := range results {
		counts[r.outcome]++
		if r.err != nil && firstErr[r.outcome] == nil {
			firstErr[r.outcome] = r.err
		}
		if r.outcome != completed {
			continue
		}
		wall += r.latency
		if r.planSearch {
			if r.cacheHit {
				warmSearch = append(warmSearch, r.searchMicros)
				warmLat = append(warmLat, r.latency)
			} else {
				coldSearch = append(coldSearch, r.searchMicros)
				coldLat = append(coldLat, r.latency)
			}
		}
	}
	for o := completed; o < outcomeCount; o++ {
		fmt.Printf("%-10s %d\n", outcomeNames[o]+":", counts[int(o)])
		if err := firstErr[o]; err != nil {
			fmt.Printf("           first: %v\n", err)
		}
	}
	if n := lat.Count(); n > 0 {
		perClient := wall / time.Duration(clients)
		if perClient > 0 {
			fmt.Printf("throughput: %.1f qps\n", float64(n)/perClient.Seconds())
		}
		p50, p90, p99, max := lat.Quantile(0.50), lat.Quantile(0.90), lat.Quantile(0.99), lat.Max()
		fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
			time.Duration(p50)*time.Microsecond,
			time.Duration(p90)*time.Microsecond,
			time.Duration(p99)*time.Microsecond,
			(time.Duration(max) * time.Microsecond).Round(time.Microsecond))
	}
	if len(coldLat) > 0 && len(warmLat) > 0 {
		fmt.Printf("plan search: cold n=%d avg_search=%v avg_latency=%v | warm n=%d avg_search=%v avg_latency=%v\n",
			len(coldLat), avgMicros(coldSearch), avgDur(coldLat),
			len(warmLat), avgMicros(warmSearch), avgDur(warmLat))
	}
	return counts
}

func sumInt64(xs []int64) int64 {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return sum
}

func avgMicros(xs []int64) time.Duration {
	return (time.Duration(sumInt64(xs)) * time.Microsecond) / time.Duration(len(xs))
}

func avgDur(xs []time.Duration) time.Duration {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return (sum / time.Duration(len(xs))).Round(time.Microsecond)
}
