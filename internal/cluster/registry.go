// Package cluster is the driver-side scheduler for ScrubJay's distributed
// execution: it tracks live shard worker processes (registration +
// heartbeat), owns a fixed connection pool per worker, and implements
// rdd.Placement by planning each shuffle's destination partitions onto
// workers with per-task retry, straggler re-execution, and deadline/cancel
// propagation. It is the live counterpart of internal/rdd's simsched, which
// stays the deterministic in-process test double — the paper's 10-node
// Spark cluster (§6) maps onto a Registry of workers here; RunWorker is
// a worker process's own lifecycle.
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
// it reported at handshake, and its connection pool. Dead workers stay dead
// — the scheduler reassigns their partitions and never dials them again
// within this registry's lifetime (a restarted worker re-registers as a new
// entry).
//
// The pool is the per-worker concurrency bound: poolSize slots, each
// holding a connection or nil (to be dialed on next use). A caller takes a
// slot with get, waiting while every slot is busy, and gives it back with
// put (healthy) or discard (broken). A healthy connection is never closed
// for want of room, so once the slots are filled an exchange dials nothing;
// only a connection that failed is replaced.
type Worker struct {
	addr string
	id   string

	reg  *Registry
	pool chan *shuffle.Conn // capacity poolSize: one entry per idle slot

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

// get takes a connection slot, waiting while all are busy, and returns its
// connection — dialing one when the slot is empty.
func (w *Worker) get(ctx context.Context) (*shuffle.Conn, error) {
	if !w.Live() {
		return nil, w.errFailed()
	}
	select {
	case c := <-w.pool:
		if !w.Live() {
			w.put(c) // closes it: the worker failed while we waited
			return nil, w.errFailed()
		}
		return w.ready(ctx, c)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ready turns a taken slot into a usable connection, dialing into an empty
// slot; the slot goes back empty when the dial fails.
func (w *Worker) ready(ctx context.Context, c *shuffle.Conn) (*shuffle.Conn, error) {
	if c != nil {
		return c, nil
	}
	c, err := shuffle.Dial(ctx, w.addr, w.reg.driverName, w.reg.opTimeout)
	if err != nil {
		w.pool <- nil
		return nil, err
	}
	return c, nil
}

func (w *Worker) errFailed() error {
	return fmt.Errorf("cluster: worker %s(%s) is marked failed", w.id, w.addr)
}

// put returns a healthy connection to its slot.
func (w *Worker) put(c *shuffle.Conn) {
	w.pool <- c
	if !w.Live() {
		w.drain() // MarkFailed may have drained before c came back
	}
}

// discard closes a broken connection and empties its slot, so the next get
// dials afresh.
func (w *Worker) discard(c *shuffle.Conn) {
	c.Close()
	w.pool <- nil
}

// drain closes every idle pooled connection, leaving its slot empty.
func (w *Worker) drain() {
	taken := 0
	for empty := false; !empty; {
		select {
		case c := <-w.pool:
			if c != nil {
				c.Close()
			}
			taken++
		default:
			empty = true
		}
	}
	for ; taken > 0; taken-- {
		w.pool <- nil
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
// in worker handshakes; opTimeout bounds each exchange round trip; poolSize
// is the number of connections kept open to each worker, which also bounds
// the requests in flight to it (default 4).
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
// to the fleet with every pool slot already connected. Returns the
// registered Worker.
func (r *Registry) Register(ctx context.Context, addr string) (*Worker, error) {
	w := &Worker{addr: addr, reg: r, pool: make(chan *shuffle.Conn, r.poolSize)}
	for i := 0; i < r.poolSize; i++ {
		c, err := shuffle.Dial(ctx, addr, r.driverName, r.opTimeout)
		if err != nil {
			w.drain()
			return nil, fmt.Errorf("cluster: registering %s: %w", addr, err)
		}
		w.id = c.WorkerID()
		w.pool <- c
	}
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

// probe pings every live worker that has an idle connection slot. A worker
// whose slots are all busy is skipped, not counted as a miss: it is serving
// exchanges, and each of those fails it on its own deadline if it hangs.
func (r *Registry) probe(misses int) {
	for _, w := range r.Live() {
		var slot *shuffle.Conn
		select {
		case slot = <-w.pool:
		default:
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), r.opTimeout)
		st, err := w.ping(ctx, slot)
		cancel()
		if err != nil {
			if int(w.misses.Add(1)) >= misses {
				r.MarkFailed(w)
			}
			continue
		}
		w.misses.Store(0)
		w.stats.Store(&st)
	}
}

// ping runs one heartbeat on a taken connection slot and gives it back.
func (w *Worker) ping(ctx context.Context, slot *shuffle.Conn) (shuffle.WorkerStats, error) {
	c, err := w.ready(ctx, slot)
	if err != nil {
		return shuffle.WorkerStats{}, err
	}
	st, err := c.Ping(ctx)
	if err != nil {
		w.discard(c)
		return shuffle.WorkerStats{}, err
	}
	w.put(c)
	return st, nil
}

// Close stops the heartbeat and closes all pooled connections.
func (r *Registry) Close() {
	r.StopHeartbeat()
	for _, w := range r.Workers() {
		w.drain()
	}
}
