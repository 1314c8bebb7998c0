// Package obs is ScrubJay's stdlib-only observability layer: hierarchical
// execution traces (query → plan-search → derivation step → rdd stage →
// task) plus a process-wide metrics registry (counters, gauges, bounded
// histograms with quantile estimation).
//
// Tracing is strictly opt-in and nil-safe. A *Span is a valid receiver when
// nil: every method no-ops (and child constructors return nil), so
// instrumented code writes
//
//	sp := parent.Child(obs.KindStage, name)
//	sp.SetInt(obs.AttrRowsOut, n)
//	sp.End()
//
// unconditionally, and the untraced hot path costs a nil check — no
// allocation, no lock, no clock read. This nil-span invariant is enforced
// by TestNilSpanZeroAlloc.
//
// Time is an injected monotonic Clock (a duration since an arbitrary
// origin), never the wall clock directly, so tests freeze it and traces
// serialize byte-identically across runs. A finished trace exports as an
// Artifact — a JSON document that round-trips losslessly and renders as a
// timeline (`scrubjay trace <file|id>`).
package obs

import "time"

// Clock reports elapsed time since an arbitrary fixed origin. Tracers read
// it at span start and end; injecting it makes traces deterministic under
// test (see FrozenClock) while production uses the monotonic wall clock.
type Clock func() time.Duration

// WallClock returns a monotonic clock starting at zero now.
func WallClock() Clock {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// FrozenClock returns a clock stuck at zero: every span gets start=0 and
// duration=0, making trace artifacts byte-identical across runs.
func FrozenClock() Clock {
	return func() time.Duration { return 0 }
}

// StepClock returns a clock advancing by step on every read — useful for
// tests that want distinct, deterministic timestamps. The returned clock
// is not safe for concurrent readers; use it from a single goroutine
// (concurrently-read deterministic tests want FrozenClock).
func StepClock(step time.Duration) Clock {
	var n int64
	return func() time.Duration {
		n++
		return time.Duration(n-1) * step
	}
}

// Span kinds, outermost to innermost. The set is open — renderers treat
// unknown kinds as plain tree nodes — but the serving stack emits exactly
// this hierarchy.
const (
	// KindQuery is the root span of one served or CLI query.
	KindQuery = "query"
	// KindSearch is the derivation engine's CSP search (plan-search).
	KindSearch = "plan-search"
	// KindExec covers plan execution (all derivation steps + collect).
	KindExec = "execute"
	// KindStep is one derivation step (transform/combine) of a plan.
	KindStep = "step"
	// KindStage is one rdd stage (a materialize or a shuffle exchange).
	KindStage = "stage"
	// KindTask is one partition of one stage.
	KindTask = "task"
)

// Well-known attribute keys. Values are int64, bool, or string.
const (
	AttrRowsIn      = "rows_in"
	AttrRowsOut     = "rows_out"
	AttrShuffle     = "shuffle"
	AttrShuffleRows = "shuffle_rows"
	// AttrShuffleBytes is the encoded payload volume a distributed exchange
	// pushed through the cluster data plane (internal/shuffle wire bytes).
	AttrShuffleBytes = "shuffle_bytes"
	// AttrWorker identifies the shard worker a distributed task ran against.
	AttrWorker     = "worker"
	AttrPartitions = "partitions"
	// AttrOrigin names the process a span was recorded in ("worker@addr");
	// spans without it originated on the driver. Stamped by Span.Graft when
	// a worker subtree is merged into the driver's trace.
	AttrOrigin = "origin"
	// AttrParentSpan, on a grafted worker subtree root, is the driver span
	// id the worker was told owns its work — the cross-process parent link
	// carried by the shuffle protocol's trace context.
	AttrParentSpan = "parent_span"
	AttrPartition  = "partition"
	AttrCacheHit   = "cache_hit"
	AttrPlanHash   = "plan_hash"
	AttrError      = "error"
	// AttrEstRows/AttrEstCPU/AttrEstShuffleBytes carry the planner's cost
	// prediction on a step span, so traces show estimated next to actual.
	AttrEstRows         = "est_rows"
	AttrEstCPU          = "est_cpu"
	AttrEstShuffleBytes = "est_shuffle_bytes"
)
