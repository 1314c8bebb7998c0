// Package cluster is the driver-side scheduler for ScrubJay's distributed
// execution: it tracks live sjworker shard processes (registration +
// heartbeat), owns a small connection pool per worker, and implements
// rdd.Placement by planning each shuffle's destination partitions onto
// workers with per-task retry, straggler re-execution, and deadline/cancel
// propagation. It is the live counterpart of internal/rdd's simsched, which
// stays the deterministic in-process test double — the paper's 10-node
// Spark cluster (§6) maps onto a Registry of sjworkers here.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/shuffle"
)

// Worker is one registered shard worker: its exchange address, the identity
// it reported at handshake, and a pooled set of connections. Dead workers
// stay dead — the scheduler reassigns their partitions and never dials them
// again within this registry's lifetime (a restarted worker re-registers as
// a new entry).
type Worker struct {
	addr string
	id   string

	reg  *Registry
	pool chan *shuffle.Conn

	failed atomic.Bool
	misses atomic.Int32
	stats  atomic.Pointer[shuffle.WorkerStats]
}

// Addr returns the worker's exchange address.
func (w *Worker) Addr() string { return w.addr }

// ID returns the identity the worker reported at registration.
func (w *Worker) ID() string { return w.id }

// Live reports whether the worker is still schedulable.
func (w *Worker) Live() bool { return !w.failed.Load() }

// Stats returns the worker's latest heartbeat metrics snapshot (the zero
// snapshot before the first successful probe).
func (w *Worker) Stats() shuffle.WorkerStats {
	if st := w.stats.Load(); st != nil {
		return *st
	}
	return shuffle.WorkerStats{}
}

// get returns a pooled connection or dials a fresh one.
func (w *Worker) get(ctx context.Context) (*shuffle.Conn, error) {
	if !w.Live() {
		return nil, fmt.Errorf("cluster: worker %s(%s) is marked failed", w.id, w.addr)
	}
	select {
	case c := <-w.pool:
		return c, nil
	default:
		return shuffle.Dial(ctx, w.addr, w.reg.driverName, w.reg.opTimeout)
	}
}

// put returns a healthy connection to the pool (closing it when full).
func (w *Worker) put(c *shuffle.Conn) {
	if !w.Live() {
		c.Close()
		return
	}
	select {
	case w.pool <- c:
	default:
		c.Close()
	}
}

// drain closes every pooled connection.
func (w *Worker) drain() {
	for {
		select {
		case c := <-w.pool:
			c.Close()
		default:
			return
		}
	}
}

// Registry tracks the worker fleet. Registration order is stable, so
// partition ownership (dst % len(live)) is deterministic for a fixed fleet —
// part of the bit-for-bit story, though correctness never depends on which
// worker owns a partition, only on the (src, seq) merge order.
type Registry struct {
	driverName string
	opTimeout  time.Duration
	poolSize   int

	mu      sync.Mutex
	workers []*Worker

	hbStop chan struct{}
	hbDone chan struct{}
}

// NewRegistry creates an empty registry. driverName identifies this driver
// in worker handshakes; opTimeout bounds each exchange round trip.
func NewRegistry(driverName string, opTimeout time.Duration, poolSize int) *Registry {
	if opTimeout <= 0 {
		opTimeout = 5 * time.Second
	}
	if poolSize < 1 {
		poolSize = 4
	}
	return &Registry{driverName: driverName, opTimeout: opTimeout, poolSize: poolSize}
}

// Register dials addr, performs the exchange handshake, and adds the worker
// to the fleet. Returns the registered Worker.
func (r *Registry) Register(ctx context.Context, addr string) (*Worker, error) {
	w := &Worker{addr: addr, reg: r, pool: make(chan *shuffle.Conn, r.poolSize)}
	c, err := shuffle.Dial(ctx, addr, r.driverName, r.opTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: registering %s: %w", addr, err)
	}
	w.id = c.WorkerID()
	w.pool <- c
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.mu.Unlock()
	return w, nil
}

// Live returns the schedulable workers in registration order.
func (r *Registry) Live() []*Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := make([]*Worker, 0, len(r.workers))
	for _, w := range r.workers {
		if w.Live() {
			live = append(live, w)
		}
	}
	return live
}

// Workers returns every registered worker, live or dead.
func (r *Registry) Workers() []*Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Worker(nil), r.workers...)
}

// MarkFailed removes a worker from scheduling and closes its connections.
// Idempotent; reports whether this call performed the transition.
func (r *Registry) MarkFailed(w *Worker) bool {
	if w.failed.Swap(true) {
		return false
	}
	w.drain()
	return true
}

// StartHeartbeat launches a background liveness prober: every interval it
// pings each live worker, and misses consecutive failures mark the worker
// failed. Stop with StopHeartbeat.
func (r *Registry) StartHeartbeat(interval time.Duration, misses int) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if misses < 1 {
		misses = 3
	}
	r.mu.Lock()
	if r.hbStop != nil {
		r.mu.Unlock()
		return // already running
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	r.hbStop, r.hbDone = stop, done
	r.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.probe(misses)
			}
		}
	}()
}

// StopHeartbeat stops the prober and waits for it to exit. Safe to call
// when no heartbeat is running.
func (r *Registry) StopHeartbeat() {
	r.mu.Lock()
	stop, done := r.hbStop, r.hbDone
	r.hbStop, r.hbDone = nil, nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (r *Registry) probe(misses int) {
	for _, w := range r.Live() {
		ctx, cancel := context.WithTimeout(context.Background(), r.opTimeout)
		c, err := w.get(ctx)
		var st shuffle.WorkerStats
		if err == nil {
			st, err = c.Ping(ctx)
		}
		cancel()
		if err != nil {
			if c != nil {
				c.Close()
			}
			if int(w.misses.Add(1)) >= misses {
				r.MarkFailed(w)
			}
			continue
		}
		w.misses.Store(0)
		w.stats.Store(&st)
		w.put(c)
	}
}

// Close stops the heartbeat and closes all pooled connections.
func (r *Registry) Close() {
	r.StopHeartbeat()
	for _, w := range r.Workers() {
		w.drain()
	}
}
