package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"sync"
	"time"

	"scrubjay/internal/engine"
	"scrubjay/internal/obs"
	"scrubjay/internal/server"
)

// outcome classifies one load request (see cmdLoad).
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

// cmdLoad drives load against a running serve and reports throughput,
// latency quantiles and plan-cache effectiveness. N concurrent clients
// start on one barrier and each issues a mixed workload (plan-only
// searches and full executions of the same query). Every request is
// classified:
//
//	completed  2xx answered in full (stream trailer received)
//	rejected   fully answered 429/503 — deliberate load shedding
//	failed     fully answered other non-2xx (bad query, no path, timeout)
//	refused    transport error before any response (server gone)
//	dropped    stream began (HTTP 200) but broke before the trailer —
//	           an accepted query the server abandoned
//
// "dropped" is the graceful-shutdown acid test: a draining serve must
// finish every stream it started, so load fails if dropped > 0. With
// -expect-rejections it also fails unless at least one request was shed,
// proving admission control engages under overload.
//
// Latency quantiles come from the same bounded histogram the server's
// /metrics endpoint uses (internal/obs), so the p50/p90/p99 printed here
// compare directly with the server's latency_p* keys.
func cmdLoad(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	serverURL := fs.String("server", "", "scrubjay serve base URL (required)")
	clients := fs.Int("clients", 8, "concurrent clients")
	requests := fs.Int("requests", 10, "requests per client")
	domains := fs.String("domains", "job,rack", "comma-separated query domains")
	values := fs.String("values", "application", "comma-separated query values, each optionally DIM:UNITS")
	window := fs.Float64("window", 0, "interpolation-join window override")
	limit := fs.Int("limit", 0, "cap streamed rows per query")
	timeoutMS := fs.Int64("timeout-ms", 30_000, "per-request deadline sent to the server")
	planEvery := fs.Int("plan-every", 4, "every Nth request is plan-only (0 = never)")
	expectRejections := fs.Bool("expect-rejections", false, "exit 1 unless the server shed load at least once")
	fs.Parse(args)
	if *serverURL == "" {
		fs.Usage()
		return usageError("load: -server is required")
	}
	q := parseQuery(*domains, *values)

	// One histogram shared by every client goroutine — the same instrument
	// the server renders on /metrics, so the quantiles line up.
	lat := obs.NewRegistry().Histogram("latency", "micros")
	results := drive(*serverURL, *clients, *requests, q, *window, *limit, *timeoutMS, *planEvery, lat)
	counts := report(results, *clients, lat)

	switch {
	case counts[dropped] > 0:
		return fmt.Errorf("load: %d in-flight queries dropped", counts[dropped])
	case *expectRejections && counts[rejected] == 0:
		return fmt.Errorf("load: expected the server to shed load, but nothing was rejected")
	case !*expectRejections && counts[completed] == 0:
		return fmt.Errorf("load: no request completed")
	}
	return nil
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

func avgMicros(xs []int64) time.Duration {
	var sum int64
	for _, x := range xs {
		sum += x
	}
	return (time.Duration(sum) * time.Microsecond) / time.Duration(len(xs))
}

func avgDur(xs []time.Duration) time.Duration {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return (sum / time.Duration(len(xs))).Round(time.Microsecond)
}
