// Package rdd is ScrubJay's data-parallel substrate: a from-scratch,
// in-memory reimplementation of the resilient-distributed-dataset execution
// model the paper builds on (§4.1, §5.3). An RDD is a lazily evaluated,
// partitioned collection with lineage: narrow operations (map, filter,
// flatMap) fuse into a single stage per partition, while shuffle operations
// (groupByKey, coGroup, and the columnar kernels' ExchangePartitions) force
// a stage boundary that exchanges rows between partitions.
//
// Execution happens on a worker pool inside one process. Stage and task
// observability is opt-in: when the Context carries a trace scope (a
// *obs.Span installed via SetSpan, or the private collector ResetMetrics
// creates), every stage emits a span and every task a timed child span,
// and the recorded task log can be replayed onto a simulated cluster (see
// Cluster and SimulateMakespan) to study scaling behaviour on hardware
// that lacks the paper's 10-node, 32-core data cluster. Without a scope,
// tasks run with zero recording overhead — no clock reads, no allocation
// (the nil-span fast path; see internal/obs). The computed results are
// always real; only the placement of measured task costs onto parallel
// executors is simulated.
package rdd

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scrubjay/internal/obs"
)

// Context owns the worker pool and the trace scope for a set of RDDs.
type Context struct {
	workers int
	// goCtx, when non-nil, bounds every action run through this Context:
	// once it is done, workers stop picking up new partitions and the
	// in-flight action aborts with a *Canceled panic (see Guard).
	goCtx context.Context

	// placement, when non-nil, routes wire-eligible shuffle exchanges
	// through a physical cluster (see Placement and WithPlacement).
	placement Placement

	// scope is the current span stages record under (nil = untraced).
	// mroot is the private collector root ResetMetrics installs, the tree
	// SnapshotMetrics derives Metrics from.
	scope atomic.Pointer[obs.Span]
	mroot atomic.Pointer[obs.Span]
}

// NewContext returns a context executing with the given number of parallel
// workers; workers <= 0 selects GOMAXPROCS. A fresh Context is untraced:
// stages record nothing until SetSpan or ResetMetrics installs a scope.
func NewContext(workers int) *Context {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Context{workers: workers}
}

// WithGoContext returns a new execution Context with the same worker count
// bound to ctx: actions on RDDs built from the returned Context stop
// dispatching partitions as soon as ctx is cancelled or its deadline
// expires, and abort with a *Canceled panic once in-flight tasks drain.
// Recover the panic into an error with Guard (pipeline.Execute does this
// for plan execution). The current trace scope carries over; the metrics
// collector does not (call ResetMetrics on the new Context to collect).
func (c *Context) WithGoContext(ctx context.Context) *Context {
	nc := &Context{workers: c.workers, goCtx: ctx, placement: c.placement}
	nc.scope.Store(c.scope.Load())
	return nc
}

// Workers reports the configured real parallelism.
func (c *Context) Workers() int { return c.workers }

// Span returns the current trace scope (nil when untraced).
func (c *Context) Span() *obs.Span { return c.scope.Load() }

// SetSpan installs sp as the trace scope: subsequent stages record as
// children of sp, tasks as timed children of their stage, all on sp's
// clock. Pass nil to disable recording. The serving layer scopes each
// request's execute span this way; pipeline.Execute re-scopes to the
// active derivation step around each Apply.
func (c *Context) SetSpan(sp *obs.Span) { c.scope.Store(sp) }

// Err reports the bound Go context's error: nil while execution may
// proceed, non-nil once the Context is cancelled or past its deadline.
func (c *Context) Err() error {
	if c.goCtx == nil {
		return nil
	}
	return c.goCtx.Err()
}

// Canceled is the error (and internal panic payload) for an action aborted
// because the Context's bound Go context ended. Workers check between
// partitions, so a cancelled Collect/Count returns promptly instead of
// burning cores for a client that is no longer listening.
type Canceled struct {
	// Cause is the Go context error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

func (c *Canceled) Error() string { return fmt.Sprintf("rdd: execution canceled: %v", c.Cause) }

// Unwrap exposes the context error to errors.Is/As.
func (c *Canceled) Unwrap() error { return c.Cause }

// Guard runs fn, converting the cancellation abort of a bound Context (or
// the failure abort of a distributed exchange) into an ordinary error. Use
// it around actions (Collect, Count, ...) on RDDs whose Context came from
// WithGoContext or WithPlacement:
//
//	rows, err := rdd.Guard(func() []value.Row { return ds.Collect() })
//
// Other panics propagate unchanged.
func Guard[T any](fn func() T) (out T, err error) {
	defer func() {
		if p := recover(); p != nil {
			switch e := p.(type) {
			case *Canceled:
				err = e
			case *ExecFailure:
				err = e
			default:
				panic(p)
			}
		}
	}()
	out = fn()
	return out, nil
}

// TaskMetrics records one executed task (one partition of one stage).
type TaskMetrics struct {
	Partition int
	Duration  time.Duration
	RowsOut   int64
}

// StageMetrics records one executed stage.
type StageMetrics struct {
	ID   int
	Name string
	// Shuffle is true when the stage ended in a partition exchange.
	Shuffle bool
	// ShuffleRows is the number of rows exchanged at the stage boundary.
	ShuffleRows int64
	Tasks       []TaskMetrics
}

// TotalTaskTime sums the durations of all tasks in the stage.
func (s StageMetrics) TotalTaskTime() time.Duration {
	var t time.Duration
	for _, task := range s.Tasks {
		t += task.Duration
	}
	return t
}

// Metrics is a snapshot of the stages executed so far.
type Metrics struct {
	Stages []StageMetrics
}

// TotalTaskTime sums task durations across all stages.
func (m Metrics) TotalTaskTime() time.Duration {
	var t time.Duration
	for _, s := range m.Stages {
		t += s.TotalTaskTime()
	}
	return t
}

// TotalShuffleRows sums shuffled rows across all stages.
func (m Metrics) TotalShuffleRows() int64 {
	var n int64
	for _, s := range m.Stages {
		n += s.ShuffleRows
	}
	return n
}

// ResetMetrics installs a fresh metrics collector: a private wall-clock
// trace whose stage/task spans SnapshotMetrics later converts to Metrics.
// The span tree is the single source of truth for task bookkeeping — there
// is no parallel stage log. Collection is opt-in: a Context that never
// called ResetMetrics (or SetSpan) records nothing and pays no timing
// cost. Call between benchmark runs to discard earlier stages.
func (c *Context) ResetMetrics() {
	tr := obs.NewTracer("rdd-metrics", nil)
	root := tr.Start(obs.KindExec, "rdd-metrics")
	c.mroot.Store(root)
	c.scope.Store(root)
}

// SnapshotMetrics derives the stage log recorded since ResetMetrics from
// the collector's span tree. Empty when ResetMetrics was never called.
func (c *Context) SnapshotMetrics() Metrics {
	return MetricsFromSpan(c.mroot.Load())
}

// MetricsFromSpan derives stage/task Metrics from a recorded span tree —
// the bridge from execution traces to the simulated-cluster scheduler
// (SimulateMakespan). Stage spans become StageMetrics in depth-first
// creation order; their task children become TaskMetrics.
func MetricsFromSpan(sp *obs.Span) Metrics {
	var m Metrics
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		children := s.Children()
		if s.Kind() == obs.KindStage {
			st := StageMetrics{
				ID:          len(m.Stages),
				Name:        s.Name(),
				Shuffle:     s.AttrBool(obs.AttrShuffle),
				ShuffleRows: s.AttrInt(obs.AttrShuffleRows),
			}
			for _, ch := range children {
				if ch.Kind() == obs.KindTask {
					st.Tasks = append(st.Tasks, TaskMetrics{
						Partition: int(ch.AttrInt(obs.AttrPartition)),
						Duration:  ch.Duration(),
						RowsOut:   ch.AttrInt(obs.AttrRowsOut),
					})
				}
			}
			m.Stages = append(m.Stages, st)
		}
		for _, ch := range children {
			walk(ch)
		}
	}
	if sp != nil {
		walk(sp)
	}
	return m
}

// recordShuffle emits a completed shuffle-boundary stage span (no task
// children) under the current scope — the stage-boundary record whose
// ShuffleRows feed SimulateMakespan's transfer model. No-op when untraced.
func (c *Context) recordShuffle(name string, rows int64) {
	sp := c.Span()
	if sp == nil {
		return
	}
	st := sp.Child(obs.KindStage, name)
	st.SetBool(obs.AttrShuffle, true)
	st.SetInt(obs.AttrShuffleRows, rows)
	st.End()
}

// taskTiming is one task's start/end offsets on the trace clock.
type taskTiming struct {
	start, end time.Duration
}

// runTasks executes task(0..n-1) on the worker pool with no per-task
// bookkeeping — the untraced hot path. Panics inside tasks propagate to
// the caller. When the Context is bound to a Go context (WithGoContext)
// and that context ends, dispatch stops, in-flight tasks drain, and
// runTasks panics with *Canceled — workers therefore check for
// cancellation between partitions, never mid-partition.
func (c *Context) runTasks(n int, task func(i int)) {
	c.runTimed(n, nil, task)
}

// runTimed is runTasks plus per-task timing on clock (when non-nil): each
// task's start/end offsets are captured on the worker goroutine and
// returned indexed by partition, so callers attach task spans in
// deterministic partition order after the stage completes. clock must be
// safe for concurrent readers (obs.WallClock and obs.FrozenClock are).
func (c *Context) runTimed(n int, clock obs.Clock, task func(i int)) []taskTiming {
	var times []taskTiming
	if clock != nil {
		times = make([]taskTiming, n)
	}
	if n == 0 {
		return times
	}
	if err := c.Err(); err != nil {
		panic(&Canceled{Cause: err})
	}
	workers := c.workers
	if workers > n {
		workers = n
	}
	bound := c.goCtx != nil
	var wg sync.WaitGroup
	next := make(chan int)
	panics := make(chan any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			for i := range next {
				if bound && c.Err() != nil {
					continue // drain the queue without computing
				}
				if clock == nil {
					task(i)
					continue
				}
				start := clock()
				task(i)
				times[i] = taskTiming{start: start, end: clock()}
			}
		}()
	}
	if !bound {
		// Unbound contexts keep the plain-send dispatch: this is the hot
		// path for every CLI/bench run and a select would tax every task.
		for i := 0; i < n; i++ {
			next <- i
		}
	} else {
		done := c.goCtx.Done()
	dispatch:
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-done:
				break dispatch
			}
		}
	}
	close(next)
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
	if err := c.Err(); err != nil {
		panic(&Canceled{Cause: err})
	}
	return times
}
