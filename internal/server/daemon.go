package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"scrubjay/internal/cache"
	"scrubjay/internal/cluster"
	"scrubjay/internal/rdd"
	"scrubjay/internal/stats"
)

// CacheBytes is the derivation-result cache budget every driver opens its
// cache with.
const CacheBytes = 256 << 20

// EnvOptions name the process-level resources a query driver may open. An
// empty field leaves its resource off.
type EnvOptions struct {
	// ShuffleWorkers is a comma-separated list of worker exchange
	// addresses; shuffles then run through that cluster.
	ShuffleWorkers string
	Cluster        cluster.Options
	// CacheDir roots the derivation-result cache.
	CacheDir string
	// StatsPath is the statistics store file: loaded (or started empty)
	// by OpenEnv and written back by SaveStats.
	StatsPath string
}

// Env is what OpenEnv opened; a resource that was not requested is nil.
// scrubjay query, run and serve all set up through it.
type Env struct {
	Sched     *cluster.Scheduler
	Cache     *cache.Cache
	Stats     *stats.Store
	statsPath string
}

// OpenEnv opens the result cache, loads the statistics store and joins the
// worker cluster, as o requests. Close the Env when done.
func OpenEnv(ctx context.Context, o EnvOptions) (*Env, error) {
	e := &Env{statsPath: o.StatsPath}
	var err error
	if o.CacheDir != "" {
		if e.Cache, err = cache.Open(o.CacheDir, CacheBytes); err != nil {
			return nil, err
		}
	}
	if o.StatsPath != "" {
		if e.Stats, err = stats.LoadFile(o.StatsPath); err != nil {
			return nil, err
		}
	}
	if o.ShuffleWorkers != "" {
		if e.Sched, err = cluster.Connect(ctx, "scrubjay", o.ShuffleWorkers, o.Cluster); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Placement is the worker cluster as an rdd placement, nil without one.
func (e *Env) Placement() rdd.Placement {
	if e.Sched == nil {
		return nil
	}
	return e.Sched
}

// SaveStats writes the statistics store back to its file (no-op without
// one).
func (e *Env) SaveStats() error {
	if e.Stats == nil {
		return nil
	}
	return e.Stats.Save(e.statsPath)
}

// Close leaves the worker cluster.
func (e *Env) Close() {
	if e.Sched != nil {
		e.Sched.Registry().Close()
	}
}

// Daemon configures the serving daemon's lifecycle (Run).
type Daemon struct {
	CatalogDir string
	Env        EnvOptions
	// Config tunes the Server; Run fills its Cache, Stats and Placement
	// from Env.
	Config Config
	// Addr is the query listener; port 0 picks a free port. AddrFile, when
	// set, receives the bound address.
	Addr, AddrFile string
	// DebugAddr, when set, mounts DebugHandler on a listener of its own, so
	// profiling never shares the query port.
	DebugAddr, DebugAddrFile string
	// Drain bounds the graceful shutdown.
	Drain time.Duration
}

// Run loads the catalog, opens the environment and serves until ctx is
// cancelled. Then it drains: new queries are answered 503, the listener
// closes, every admitted query runs to completion, and the result-cache
// index and statistics store are written back. A drain that overruns
// d.Drain is an error: dropped in-flight queries are a reportable failure.
func (d Daemon) Run(ctx context.Context) error {
	store := NewStore()
	t0 := time.Now()
	if err := store.LoadDir(d.CatalogDir, d.Config.Workers); err != nil {
		return err
	}
	log.Printf("catalog %s: %d datasets loaded in %v", d.CatalogDir, store.Len(), time.Since(t0).Round(time.Millisecond))
	env, err := OpenEnv(ctx, d.Env)
	if err != nil {
		return err
	}
	defer env.Close()
	cfg := d.Config
	cfg.Cache, cfg.Stats, cfg.Placement = env.Cache, env.Stats, env.Placement()
	s := New(store, cfg)
	if env.Sched != nil {
		// The scheduler's exchange counters and cluster_worker_* fleet
		// gauges surface on the daemon's own GET /metrics.
		env.Sched.AttachMetrics(s.Metrics())
		log.Printf("shuffle cluster: %d workers", len(env.Sched.Registry().Workers()))
	}

	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if d.AddrFile != "" {
		if err := cluster.WriteAddrFile(d.AddrFile, ln.Addr().String()); err != nil {
			return err
		}
	}
	// The profiling server is best-effort: it takes no part in the drain.
	if d.DebugAddr != "" {
		dln, err := net.Listen("tcp", d.DebugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debug := &http.Server{Handler: DebugHandler()}
		go debug.Serve(dln)
		defer debug.Close()
		if d.DebugAddrFile != "" {
			if err := cluster.WriteAddrFile(d.DebugAddrFile, dln.Addr().String()); err != nil {
				return err
			}
		}
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
	}

	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("serving on http://%s (executors=%d queue=%d trace-ring=%d)",
		ln.Addr(), s.cfg.MaxConcurrent, s.cfg.MaxQueue, s.cfg.TraceRing)
	select {
	case <-ctx.Done():
		log.Printf("shutdown requested, draining")
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	s.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), d.Drain)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete after %v: %w", d.Drain, err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if err := s.Flush(); err != nil {
		return fmt.Errorf("flushing result cache: %w", err)
	}
	if err := env.SaveStats(); err != nil {
		return fmt.Errorf("saving statistics store: %w", err)
	}
	log.Printf("drained cleanly, bye")
	return nil
}
