package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/obs"
	"scrubjay/internal/shuffle"
)

// Options tunes the Scheduler. Zero values select the defaults noted.
//
// There is no concurrency option: each worker's connection pool (the
// registry's poolSize) bounds the requests in flight to it.
type Options struct {
	// TaskRetries is how many times one destination's push/fetch task is
	// re-executed on a fresh worker after a failure (default 3).
	TaskRetries int
	// StragglerAfter launches a backup re-execution of a fetch task on
	// another worker when the primary has not answered within this window;
	// the first result wins (default 2s, <0 disables).
	StragglerAfter time.Duration
	// ChunkBytes caps one put payload; larger (src, dst) buckets ship as
	// sequenced chunks (default shuffle.DefaultChunkBytes).
	ChunkBytes int
	// Metrics, when set, receives exchange counters and fetch latencies.
	Metrics *obs.Registry
	// PhaseHook, when set, is called at "push", "barrier", and "fetch" of
	// every exchange — the seam fault-injection tests use to kill a worker
	// at a deterministic point mid-query.
	PhaseHook func(phase, stage string)
}

func (o Options) withDefaults() Options {
	if o.TaskRetries < 1 {
		o.TaskRetries = 3
	}
	if o.StragglerAfter == 0 {
		o.StragglerAfter = 2 * time.Second
	}
	if o.ChunkBytes < 1 {
		o.ChunkBytes = shuffle.DefaultChunkBytes
	}
	return o
}

// Scheduler plans shuffle exchanges onto the registry's live workers. It
// implements rdd.Placement.
//
// Invariants the rdd layer relies on:
//
//   - Deterministic merge order: the payload returned for destination d is
//     the concatenation of enc[src][d] in ascending (src, seq) order, no
//     matter which worker served it or how many retries it took. Workers
//     sort stored chunks by (src, seq) at fetch time.
//   - At-most-once task visibility: a destination's payload is committed to
//     the caller exactly once. Retries and straggler backups re-execute the
//     task (re-push + fetch — puts are idempotent on workers), but only the
//     first completed result is visible; the loser is discarded.
//   - Push-before-fetch: all destinations are fully pushed (barrier) before
//     any fetch is issued, so a worker never serves a partial merge.
type Scheduler struct {
	reg  *Registry
	opts Options
	seq  atomic.Int64

	metricsSet atomic.Bool
	exchanges  *obs.Counter
	retries    *obs.Counter
	stragglers *obs.Counter
	bytesOut   *obs.Counter
	fetchUS    *obs.Histogram
}

// NewScheduler builds a scheduler over reg.
func NewScheduler(reg *Registry, opts Options) *Scheduler {
	s := &Scheduler{reg: reg, opts: opts.withDefaults()}
	s.AttachMetrics(s.opts.Metrics)
	return s
}

// AttachMetrics wires the scheduler's counters and the fleet-health gauges
// into m: cluster_workers_live plus cluster_worker_* aggregates of the
// heartbeat snapshots (stored bytes, shuffles, goroutines, heap, fetch
// count summed over live workers; fetch p99 as the fleet max). Idempotent —
// the first non-nil registry wins; the serving daemon calls this after
// server construction so the scheduler shares the server's /metrics registry.
func (s *Scheduler) AttachMetrics(m *obs.Registry) {
	if m == nil || s.metricsSet.Swap(true) {
		return
	}
	s.exchanges = m.Counter("cluster_exchanges_total")
	s.retries = m.Counter("cluster_task_retries_total")
	s.stragglers = m.Counter("cluster_straggler_backups_total")
	s.bytesOut = m.Counter("cluster_shuffle_bytes_total")
	s.fetchUS = m.Histogram("cluster_fetch_latency", "us")
	reg := s.reg
	sum := func(f func(shuffle.WorkerStats) int64) func() int64 {
		return func() int64 {
			var t int64
			for _, w := range reg.Live() {
				t += f(w.Stats())
			}
			return t
		}
	}
	m.GaugeFunc("cluster_workers_live", func() int64 { return int64(len(reg.Live())) })
	m.GaugeFunc("cluster_worker_stored_bytes", sum(func(st shuffle.WorkerStats) int64 { return st.StoredBytes }))
	m.GaugeFunc("cluster_worker_shuffles", sum(func(st shuffle.WorkerStats) int64 { return int64(st.Shuffles) }))
	m.GaugeFunc("cluster_worker_goroutines", sum(func(st shuffle.WorkerStats) int64 { return int64(st.Goroutines) }))
	m.GaugeFunc("cluster_worker_heap_bytes", sum(func(st shuffle.WorkerStats) int64 { return st.HeapBytes }))
	m.GaugeFunc("cluster_worker_fetches", sum(func(st shuffle.WorkerStats) int64 { return st.Fetches }))
	m.GaugeFunc("cluster_worker_fetch_p99_us", func() int64 {
		var max int64
		for _, w := range reg.Live() {
			if p := w.Stats().FetchP99us; p > max {
				max = p
			}
		}
		return max
	})
}

// Registry returns the scheduler's worker registry.
func (s *Scheduler) Registry() *Registry { return s.reg }

func (s *Scheduler) hook(phase, stage string) {
	if s.opts.PhaseHook != nil {
		s.opts.PhaseHook(phase, stage)
	}
}

// Exchange implements rdd.Placement: push every (src, dst) bucket to the
// destination's owner worker, barrier, then fetch each destination's merged
// payload. Worker failures reassign the destination to the next live worker
// and re-execute its task from the driver-retained encoded buckets. Every
// destination's push and fetch runs at once; the owners' connection pools
// bound how many are on the wire. Traced, the phases record as "push",
// "barrier", "fetch", "collect-spans" (only when the trace context crosses
// the wire) and "drop" children of the exchange span.
func (s *Scheduler) Exchange(ctx context.Context, stage string, numOut int, enc [][][]byte) ([][]byte, error) {
	live := s.reg.Live()
	if len(live) == 0 {
		return nil, fmt.Errorf("cluster: no live workers")
	}
	if s.exchanges != nil {
		s.exchanges.Inc()
	}
	// The driver-side exchange span (threaded via obs.ContextWithSpan by the
	// rdd layer) becomes the trace context every put/fetch carries across
	// the wire, and the graft point for the worker subtrees collected after
	// the fetch phase. A nil span yields an empty TraceCtx: untraced.
	parent := obs.SpanFrom(ctx)
	tc := shuffle.TraceCtx{TraceID: parent.TraceID(), ParentSpan: parent.ID()}
	id := fmt.Sprintf("%s#%d", stage, s.seq.Add(1))
	owners := make([]*Worker, numOut)
	for d := range owners {
		owners[d] = live[d%len(live)]
	}

	// Push phase: per destination, pipeline that destination's chunks from
	// every source on one connection; destinations proceed in parallel. A
	// failure reassigns the destination and re-pushes it in full (puts are
	// idempotent, re-sent chunks overwrite).
	s.hook("push", stage)
	push := parent.Child("push", stage)
	push.SetInt(obs.AttrPartitions, int64(numOut))
	errs := make([]error, numOut)
	var wg sync.WaitGroup
	for d := 0; d < numOut; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owners[d], errs[d] = s.pushWithRetry(ctx, id, stage, d, owners[d], enc, tc)
		}()
	}
	wg.Wait()
	push.End()
	barrier := parent.Child("barrier", stage)
	for _, err := range errs {
		if err != nil {
			barrier.End()
			s.drop(parent, id, stage)
			return nil, err
		}
	}
	s.hook("barrier", stage)
	barrier.End()

	// Fetch phase: per destination, fetch the merged payload from its
	// owner, with retry-on-new-worker and straggler backup.
	fetch := parent.Child("fetch", stage)
	fetch.SetInt(obs.AttrPartitions, int64(numOut))
	out := make([][]byte, numOut)
	for d := 0; d < numOut; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[d], errs[d] = s.fetchWithRecovery(ctx, id, stage, d, owners[d], enc, tc)
		}()
	}
	wg.Wait()
	fetch.End()
	s.hook("fetch", stage)
	for _, err := range errs {
		if err != nil {
			s.drop(parent, id, stage)
			return nil, err
		}
	}
	s.collectSpans(ctx, id, stage, parent)
	s.drop(parent, id, stage)
	return out, nil
}

// collectSpans ships every live worker's recorded span subtrees for this
// exchange back and grafts them under the driver-side exchange span,
// renumbered into the driver's trace and rebased to the exchange start,
// each stamped with its worker origin. Best-effort: a worker that fails
// here loses its spans, never the query.
func (s *Scheduler) collectSpans(ctx context.Context, id, stage string, parent *obs.Span) {
	if parent == nil || parent.TraceID() == "" {
		return
	}
	sp := parent.Child("collect-spans", stage)
	defer sp.End()
	for _, w := range s.reg.Live() {
		c, err := w.get(ctx)
		if err != nil {
			continue
		}
		recs, err := c.Spans(ctx, id, parent.TraceID())
		if err != nil {
			w.discard(c)
			continue
		}
		w.put(c)
		for _, rec := range recs {
			g := parent.Graft(rec, parent.Start(), "worker@"+w.addr)
			g.SetStr(obs.AttrWorker, w.addr)
			g.End() // Graft returns the subtree already ended; idempotent
		}
	}
}

// pushWithRetry pushes destination d's buckets to w, reassigning to the
// next live worker on failure. Returns the worker that holds the data.
func (s *Scheduler) pushWithRetry(ctx context.Context, id, stage string, d int, w *Worker, enc [][][]byte, tc shuffle.TraceCtx) (*Worker, error) {
	var lastErr error
	for attempt := 0; attempt <= s.opts.TaskRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return w, err
		}
		if attempt > 0 {
			if s.retries != nil {
				s.retries.Inc()
			}
			next := s.replacement(w)
			if next == nil {
				return w, fmt.Errorf("cluster: push %s dst %d: no live workers left: %w", stage, d, lastErr)
			}
			w = next
		}
		if err := s.pushDstTo(ctx, id, d, w, enc, tc); err != nil {
			lastErr = err
			s.failWorker(w, err)
			continue
		}
		return w, nil
	}
	return w, fmt.Errorf("cluster: push %s dst %d: retries exhausted: %w", stage, d, lastErr)
}

// pushDstTo ships every (src, seq) chunk for destination d to worker w as
// one pipelined burst on one pooled connection.
func (s *Scheduler) pushDstTo(ctx context.Context, id string, d int, w *Worker, enc [][][]byte, tc shuffle.TraceCtx) error {
	var chunks []shuffle.Chunk
	var size int64
	for src := range enc {
		payload := enc[src][d]
		size += int64(len(payload))
		for seq := 0; len(payload) > 0; seq++ {
			n := min(len(payload), s.opts.ChunkBytes)
			chunks = append(chunks, shuffle.Chunk{Dst: d, Src: src, Seq: seq, Payload: payload[:n]})
			payload = payload[n:]
		}
	}
	if len(chunks) == 0 {
		return nil
	}
	c, err := w.get(ctx)
	if err != nil {
		return err
	}
	if err := c.PutAll(ctx, id, chunks, tc); err != nil {
		w.discard(c)
		return err
	}
	w.put(c)
	if s.bytesOut != nil {
		s.bytesOut.Add(size)
	}
	return nil
}

// fetchWithRecovery fetches destination d from owner, re-executing the task
// (re-push to a replacement, fetch) on failure, and racing a straggler
// backup when the primary stalls. Only the first completed payload is
// committed (at-most-once visibility).
func (s *Scheduler) fetchWithRecovery(ctx context.Context, id, stage string, d int, owner *Worker, enc [][][]byte, tc shuffle.TraceCtx) ([]byte, error) {
	type result struct {
		payload []byte
		err     error
		worker  *Worker
	}
	results := make(chan result, s.opts.TaskRetries+2)
	attempt := func(w *Worker, repush bool) {
		if repush {
			if err := s.pushDstTo(ctx, id, d, w, enc, tc); err != nil {
				results <- result{nil, err, w}
				return
			}
		}
		start := time.Now()
		payload, err := s.fetchFrom(ctx, id, d, w, tc)
		if err == nil && s.fetchUS != nil {
			s.fetchUS.ObserveDuration(time.Since(start))
		}
		results <- result{payload, err, w}
	}

	outstanding := 1
	launches := 1
	go attempt(owner, false)

	var straggler <-chan time.Time
	if s.opts.StragglerAfter > 0 {
		// A stoppable timer, not time.After: the fetch usually returns long
		// before the straggler deadline, and an unstopped timer would pin
		// its allocation (and this channel) until it fires.
		timer := time.NewTimer(s.opts.StragglerAfter)
		defer timer.Stop()
		straggler = timer.C
	}
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-straggler:
			straggler = nil
			if launches > s.opts.TaskRetries {
				continue
			}
			if next := s.replacement(owner); next != nil {
				if s.stragglers != nil {
					s.stragglers.Inc()
				}
				launches++
				outstanding++
				go attempt(next, true)
			}
		case r := <-results:
			outstanding--
			if r.err == nil {
				return r.payload, nil // first success commits; losers are discarded
			}
			lastErr = r.err
			s.failWorker(r.worker, r.err)
			if launches <= s.opts.TaskRetries {
				if next := s.replacement(r.worker); next != nil {
					if s.retries != nil {
						s.retries.Inc()
					}
					launches++
					outstanding++
					go attempt(next, true)
				}
			}
			if outstanding == 0 {
				return nil, fmt.Errorf("cluster: fetch %s dst %d failed: %w", stage, d, lastErr)
			}
		}
	}
}

func (s *Scheduler) fetchFrom(ctx context.Context, id string, d int, w *Worker, tc shuffle.TraceCtx) ([]byte, error) {
	c, err := w.get(ctx)
	if err != nil {
		return nil, err
	}
	payload, err := c.FetchTraced(ctx, id, d, tc)
	if err != nil {
		w.discard(c)
		return nil, err
	}
	w.put(c)
	return payload, nil
}

// failWorker marks w failed unless the error is a context cancellation —
// a query deadline is the driver's fault, not the worker's.
func (s *Scheduler) failWorker(w *Worker, err error) {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.reg.MarkFailed(w)
}

// replacement picks a live worker other than exclude (or any live worker
// when exclude is the only one left). Nil when the fleet is empty.
func (s *Scheduler) replacement(exclude *Worker) *Worker {
	live := s.reg.Live()
	for _, w := range live {
		if w != exclude {
			return w
		}
	}
	if len(live) > 0 {
		return live[0]
	}
	return nil
}

// drop frees worker-side shuffle state in the background. Its "drop" span
// times only the hand-off: the exchange does not wait for the workers.
func (s *Scheduler) drop(parent *obs.Span, id, stage string) {
	sp := parent.Child("drop", stage)
	defer sp.End()
	workers := s.reg.Live()
	sp.SetInt("workers", int64(len(workers)))
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.reg.opTimeout)
		defer cancel()
		for _, w := range workers {
			if c, err := w.get(ctx); err == nil {
				if c.Drop(ctx, id) == nil {
					w.put(c)
				} else {
					w.discard(c)
				}
			}
		}
	}()
}
