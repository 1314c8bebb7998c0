package main

import (
	"context"
	"flag"
	"log"
	"time"

	"scrubjay/internal/cluster"
	"scrubjay/internal/server"
)

// cmdServe runs the query-serving daemon (server.Daemon.Run): it loads a
// catalog once and serves derivation queries to concurrent clients over
// HTTP. Load is shed with 429/503 + Retry-After when the bounded executor
// and its wait queue fill; SIGINT/SIGTERM drains. Served rows are
// byte-identical to a local `scrubjay query` on the same catalog, and with
// -shuffle-workers to an in-process run too.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var d server.Daemon
	fs.StringVar(&d.Addr, "addr", "127.0.0.1:8372", "listen address (port 0 picks a free port)")
	fs.StringVar(&d.AddrFile, "addr-file", "", "write the actual listen address to this file once serving")
	fs.StringVar(&d.CatalogDir, "catalog", "", "catalog directory to serve (required)")
	fs.IntVar(&d.Config.Workers, "workers", 0, "rdd workers per request (0 = GOMAXPROCS)")
	fs.IntVar(&d.Config.MaxConcurrent, "max-concurrent", 4, "executor slots")
	fs.IntVar(&d.Config.MaxQueue, "max-queue", 64, "bounded wait queue (negative = none)")
	fs.StringVar(&d.Env.ShuffleWorkers, "shuffle-workers", "", "comma-separated scrubjay worker exchange addresses; when set, shuffles run through the worker cluster")
	fs.StringVar(&d.Env.CacheDir, "cache", "", "derivation-result cache directory (optional)")
	fs.StringVar(&d.Env.StatsPath, "stats", "", "statistics store file: enables cost-based planning, saved back on drain (optional)")
	fs.Float64Var(&d.Config.WindowSeconds, "window", 120, "default interpolation-join window in seconds")
	fs.IntVar(&d.Config.TraceRing, "trace-ring", 64, "retained query traces for GET /v1/trace/{id} (negative disables tracing)")
	fs.StringVar(&d.DebugAddr, "debug-addr", "", "mount net/http/pprof on this separate listener (empty = no profiling surface)")
	fs.StringVar(&d.DebugAddrFile, "debug-addr-file", "", "write the actual debug listen address to this file")
	defaultTimeoutMS := fs.Int64("default-timeout-ms", 30_000, "per-request deadline when the client sends none")
	maxTimeoutMS := fs.Int64("max-timeout-ms", 300_000, "upper clamp on client-supplied deadlines")
	drainMS := fs.Int64("drain-ms", 30_000, "graceful-shutdown drain budget")
	fs.Parse(args)
	if d.CatalogDir == "" {
		fs.Usage()
		return usageError("serve: -catalog is required")
	}
	d.Config.DefaultTimeout = time.Duration(*defaultTimeoutMS) * time.Millisecond
	d.Config.MaxTimeout = time.Duration(*maxTimeoutMS) * time.Millisecond
	d.Drain = time.Duration(*drainMS) * time.Millisecond
	log.SetPrefix("scrubjay serve: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	return d.Run(ctx)
}

// cmdWorker runs a shard worker (cluster.RunWorker): the TCP shuffle
// exchange that distributed queries move column batches through. A driver
// (serve or query with -shuffle-workers) registers workers by address,
// pushes map outputs to them and fetches merged destination partitions
// back.
func cmdWorker(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7401", "address to serve the shuffle exchange on (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "optional file to write the bound address to (for scripts that use -addr :0)")
	id := fs.String("id", "", "worker identity reported to drivers (default: the bound address)")
	fs.Parse(args)
	return cluster.RunWorker(ctx, *addr, *addrFile, *id)
}
