// Command sjserved is ScrubJay's query-serving daemon: it loads a catalog
// directory once and serves derivation queries to many concurrent clients
// over HTTP (see internal/server for the API). Load is shed with
// 429/503 + Retry-After when the bounded executor and its wait queue fill,
// and SIGINT/SIGTERM triggers a graceful drain: the listener closes,
// every accepted query runs to completion, the result-cache index is
// flushed, and the process exits 0. A drain that cannot finish inside
// -drain-ms exits 1 — dropped in-flight queries are a reportable failure,
// not business as usual.
//
// Observability: every executed query is traced (fetch artifacts at
// GET /v1/trace/{id}; retention set by -trace-ring), and -debug-addr
// mounts the net/http/pprof profiling surface on its own listener, kept
// off the query port so profiling access can be firewalled separately.
//
//	sjserved -catalog DIR [-addr HOST:PORT] [-addr-file PATH]
//	         [-workers N] [-max-concurrent N] [-max-queue N]
//	         [-cache DIR] [-cache-bytes N] [-plan-cache N] [-stats FILE]
//	         [-window SEC] [-default-timeout-ms N] [-max-timeout-ms N]
//	         [-drain-ms N] [-trace-ring N]
//	         [-debug-addr HOST:PORT] [-debug-addr-file PATH]
//	         [-shuffle-workers ADDR,ADDR,...]
//
// Every query executes on the columnar kernels, over frames built once per
// dataset at load or registration, and its NDJSON rows are byte-identical to
// `scrubjay query` run locally on the same catalog. With -shuffle-workers,
// every query's shuffle exchanges move through the listed sjworker shard
// processes (registration + heartbeat + retry via internal/cluster); results
// are bit-for-bit identical to in-process runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"scrubjay/internal/cache"
	"scrubjay/internal/cluster"
	"scrubjay/internal/rdd"
	"scrubjay/internal/server"
	"scrubjay/internal/stats"
)

// options collects every flag so run stays testable without a flag set.
type options struct {
	addr           string
	addrFile       string
	catalogDir     string
	workers        int
	maxConcurrent  int
	maxQueue       int
	shuffleWorkers string
	cacheDir       string
	statsPath      string
	cacheBytes     int64
	planCacheSize  int
	window         float64
	traceRing      int
	debugAddr      string
	debugAddrFile  string
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	drainBudget    time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8372", "listen address (port 0 picks a free port)")
	flag.StringVar(&o.addrFile, "addr-file", "", "write the actual listen address to this file once serving")
	flag.StringVar(&o.catalogDir, "catalog", "", "catalog directory to serve (required)")
	flag.IntVar(&o.workers, "workers", 0, "rdd workers per request (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxConcurrent, "max-concurrent", 4, "executor slots")
	flag.IntVar(&o.maxQueue, "max-queue", 64, "bounded wait queue (negative = none)")
	flag.StringVar(&o.shuffleWorkers, "shuffle-workers", "", "comma-separated sjworker exchange addresses; when set, shuffles run through the worker cluster")
	flag.StringVar(&o.cacheDir, "cache", "", "derivation-result cache directory (optional)")
	flag.StringVar(&o.statsPath, "stats", "", "statistics store file: enables cost-based planning, saved back on drain (optional)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 256<<20, "result-cache budget in bytes")
	flag.IntVar(&o.planCacheSize, "plan-cache", 256, "plan-cache LRU capacity")
	flag.Float64Var(&o.window, "window", 120, "default interpolation-join window in seconds")
	flag.IntVar(&o.traceRing, "trace-ring", 64, "retained query traces for GET /v1/trace/{id} (negative disables tracing)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "mount net/http/pprof on this separate listener (empty = no profiling surface)")
	flag.StringVar(&o.debugAddrFile, "debug-addr-file", "", "write the actual debug listen address to this file")
	defaultTimeoutMS := flag.Int64("default-timeout-ms", 30_000, "per-request deadline when the client sends none")
	maxTimeoutMS := flag.Int64("max-timeout-ms", 300_000, "upper clamp on client-supplied deadlines")
	drainMS := flag.Int64("drain-ms", 30_000, "graceful-shutdown drain budget")
	flag.Parse()
	o.defaultTimeout = time.Duration(*defaultTimeoutMS) * time.Millisecond
	o.maxTimeout = time.Duration(*maxTimeoutMS) * time.Millisecond
	o.drainBudget = time.Duration(*drainMS) * time.Millisecond
	if o.catalogDir == "" {
		fmt.Fprintln(os.Stderr, "sjserved: -catalog is required")
		flag.Usage()
		os.Exit(2)
	}
	log.SetPrefix("sjserved: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	store := server.NewStore()
	t0 := time.Now()
	if err := store.LoadDir(o.catalogDir, o.workers); err != nil {
		return err
	}
	log.Printf("catalog %s: %d datasets loaded in %v", o.catalogDir, store.Len(), time.Since(t0).Round(time.Millisecond))

	var resultCache *cache.Cache
	if o.cacheDir != "" {
		var err error
		resultCache, err = cache.Open(o.cacheDir, o.cacheBytes)
		if err != nil {
			return err
		}
		log.Printf("result cache %s: %d entries, budget %d bytes", o.cacheDir, resultCache.Len(), o.cacheBytes)
	}

	// -stats: load the persistent statistics store. server.New profiles the
	// already-loaded catalog into it (AttachStats) and the query path feeds
	// executed-step observations back; the store is saved on drain.
	var statsStore *stats.Store
	if o.statsPath != "" {
		var err error
		statsStore, err = stats.LoadFile(o.statsPath)
		if err != nil {
			return err
		}
		t, d := statsStore.Len()
		log.Printf("statistics store %s: %d tables, %d derivations, epoch %d", o.statsPath, t, d, statsStore.Epoch())
	}

	var placement rdd.Placement
	var sched *cluster.Scheduler
	if o.shuffleWorkers != "" {
		var err error
		sched, err = cluster.Connect(context.Background(), "sjserved", o.shuffleWorkers, cluster.Options{})
		if err != nil {
			return err
		}
		defer sched.Registry().Close()
		workers := sched.Registry().Workers()
		ids := make([]string, len(workers))
		for i, w := range workers {
			ids[i] = w.ID()
		}
		log.Printf("shuffle cluster: %d workers (%s)", len(workers), strings.Join(ids, ", "))
		placement = sched
	}

	s := server.New(store, server.Config{
		Workers:        o.workers,
		MaxConcurrent:  o.maxConcurrent,
		MaxQueue:       o.maxQueue,
		DefaultTimeout: o.defaultTimeout,
		MaxTimeout:     o.maxTimeout,
		PlanCacheSize:  o.planCacheSize,
		WindowSeconds:  o.window,
		Cache:          resultCache,
		TraceRing:      o.traceRing,
		Placement:      placement,
		Stats:          statsStore,
	})
	if sched != nil {
		// The scheduler's exchange counters and cluster_worker_* fleet
		// gauges surface on the daemon's own GET /metrics.
		sched.AttachMetrics(s.Metrics())
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.addrFile != "" {
		if err := writeAddrFile(o.addrFile, ln.Addr().String()); err != nil {
			ln.Close()
			return err
		}
	}

	// The profiling surface gets its own listener and server so the query
	// port never exposes pprof. Best-effort: it dies with the process and
	// takes no part in the drain protocol.
	var debugServer *http.Server
	if o.debugAddr != "" {
		dln, err := net.Listen("tcp", o.debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		if o.debugAddrFile != "" {
			if err := writeAddrFile(o.debugAddrFile, dln.Addr().String()); err != nil {
				ln.Close()
				dln.Close()
				return err
			}
		}
		debugServer = &http.Server{Handler: server.DebugHandler()}
		go debugServer.Serve(dln)
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
	}

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("serving on http://%s (executors=%d queue=%d trace-ring=%d)",
		ln.Addr(), o.maxConcurrent, o.maxQueue, o.traceRing)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case got := <-sig:
		log.Printf("received %v, draining", got)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	// Graceful shutdown: stop admitting (503 + Retry-After for stragglers
	// on kept-alive connections), close the listener, wait for every
	// accepted query to finish, then flush the result cache.
	s.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), o.drainBudget)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain incomplete after %v: %w", o.drainBudget, err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if debugServer != nil {
		debugServer.Close()
	}
	if err := s.Flush(); err != nil {
		return fmt.Errorf("flushing result cache: %w", err)
	}
	if statsStore != nil {
		if err := statsStore.Save(o.statsPath); err != nil {
			return fmt.Errorf("saving statistics store: %w", err)
		}
		t, d := statsStore.Len()
		log.Printf("statistics store saved: %d tables, %d derivations, epoch %d", t, d, statsStore.Epoch())
	}
	log.Printf("drained cleanly, bye")
	return nil
}

// writeAddrFile lands the address via temp + rename so a watcher never
// reads a partial line.
func writeAddrFile(path, addr string) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, []byte(addr+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
