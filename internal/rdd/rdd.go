package rdd

import (
	"sync"

	"scrubjay/internal/obs"
)

// RDD is a lazily evaluated, partitioned, immutable collection of T.
// Operations build lineage; actions (Collect, Count, Reduce) trigger
// execution. Narrow operations fuse: a chain of maps/filters over one RDD
// executes as a single task per partition, as in Spark.
type RDD[T any] struct {
	ctx      *Context
	name     string
	numParts int
	// compute produces one partition. It must be safe to call concurrently
	// for distinct partitions and pure with respect to its input lineage:
	// no writes to captured variables or package-level state. The race
	// detector enforces this contract: go test -race runs the tests that
	// drive compute bodies (and closures passed to Map/Filter/FlatMap and
	// friends) on two or more partitions at once.
	compute func(part int) []T

	// wire, when set (WithWire), makes the next shuffle boundary over this
	// RDD eligible for distributed exchange through the Context's Placement.
	wire *Wire[T]

	// Caching: once materialized, partitions are served from memory.
	cacheMu sync.Mutex
	caching bool
	cached  [][]T
}

// Parallelize distributes a slice across numParts partitions.
func Parallelize[T any](ctx *Context, data []T, numParts int) *RDD[T] {
	if numParts <= 0 {
		numParts = ctx.Workers()
	}
	if numParts < 1 {
		numParts = 1
	}
	return &RDD[T]{
		ctx:      ctx,
		name:     "parallelize",
		numParts: numParts,
		compute: func(part int) []T {
			lo := part * len(data) / numParts
			hi := (part + 1) * len(data) / numParts
			out := make([]T, hi-lo)
			copy(out, data[lo:hi])
			return out
		},
	}
}

// FromPartitions wraps pre-partitioned data.
func FromPartitions[T any](ctx *Context, parts [][]T) *RDD[T] {
	return &RDD[T]{
		ctx:      ctx,
		name:     "fromPartitions",
		numParts: len(parts),
		compute:  func(part int) []T { return parts[part] },
	}
}

// Generate builds an RDD of n elements produced by gen(i), partitioned into
// numParts. Useful for synthetic workloads without materializing input
// slices up front.
func Generate[T any](ctx *Context, n int, numParts int, gen func(i int) T) *RDD[T] {
	if numParts <= 0 {
		numParts = ctx.Workers()
	}
	if numParts < 1 {
		numParts = 1
	}
	return &RDD[T]{
		ctx:      ctx,
		name:     "generate",
		numParts: numParts,
		compute: func(part int) []T {
			lo := part * n / numParts
			hi := (part + 1) * n / numParts
			out := make([]T, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, gen(i))
			}
			return out
		},
	}
}

// Context returns the execution context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions reports the partition count.
func (r *RDD[T]) NumPartitions() int { return r.numParts }

// Name returns the lineage label of this RDD.
func (r *RDD[T]) Name() string { return r.name }

// WithName relabels the RDD for metrics and debugging.
func (r *RDD[T]) WithName(name string) *RDD[T] {
	r.name = name
	return r
}

// Cache marks the RDD so its first materialization is retained and reused
// by later actions.
func (r *RDD[T]) Cache() *RDD[T] {
	r.cacheMu.Lock()
	r.caching = true
	r.cacheMu.Unlock()
	return r
}

// partition computes (or fetches from cache) one partition.
func (r *RDD[T]) partition(part int) []T {
	r.cacheMu.Lock()
	if r.cached != nil {
		p := r.cached[part]
		r.cacheMu.Unlock()
		return p
	}
	r.cacheMu.Unlock()
	return r.compute(part)
}

// rowCounter is implemented by batch element types (*frame.Frame and the
// columnar kernels' keyed batches): one element carries NumRows rows.
type rowCounter interface{ NumRows() int }

// countsRows reports whether T is a batch type whose elements count
// NumRows rows each. It is decided once per call from T's zero value, so
// element types without the method never box an element into an interface.
func countsRows[T any]() bool {
	var zero T
	_, ok := any(zero).(rowCounter)
	return ok
}

// rowsIn counts the rows one partition carries: NumRows per element when
// batched, otherwise one per element.
func rowsIn[T any](part []T, batched bool) int64 {
	if !batched {
		return int64(len(part))
	}
	var n int64
	for _, v := range part {
		n += int64(any(v).(rowCounter).NumRows())
	}
	return n
}

// materialize runs a stage that computes every partition of r on the worker
// pool and returns the partitions. Under a trace scope it emits a stage
// span with one timed task span per partition, whose rows_out count rows
// (see rowsIn); untraced it records nothing and pays no timing cost (the
// nil-span fast path).
func (r *RDD[T]) materialize(stageName string) [][]T {
	r.cacheMu.Lock()
	if r.cached != nil {
		parts := r.cached
		r.cacheMu.Unlock()
		return parts
	}
	r.cacheMu.Unlock()

	parts := make([][]T, r.numParts)
	compute := func(i int) { parts[i] = r.partition(i) }
	if sp := r.ctx.Span(); sp != nil {
		stage := sp.Child(obs.KindStage, stageName)
		stage.SetInt(obs.AttrPartitions, int64(r.numParts))
		times := r.ctx.runTimed(r.numParts, stage.Clock(), compute)
		// Task spans attach post-run in partition order so the trace is
		// deterministic regardless of worker scheduling.
		batched := countsRows[T]()
		var rows int64
		for i, tm := range times {
			n := rowsIn(parts[i], batched)
			task := stage.ChildAt(obs.KindTask, "", tm.start)
			task.SetInt(obs.AttrPartition, int64(i))
			task.SetInt(obs.AttrRowsOut, n)
			task.EndAt(tm.end)
			rows += n
		}
		stage.SetInt(obs.AttrRowsOut, rows)
		stage.End()
	} else {
		r.ctx.runTasks(r.numParts, compute)
	}

	r.cacheMu.Lock()
	if r.caching && r.cached == nil {
		r.cached = parts
	}
	r.cacheMu.Unlock()
	return parts
}

// ---- Narrow transformations (fuse into the consumer's stage) ----

// Map applies f elementwise.
func Map[A, B any](r *RDD[A], f func(A) B) *RDD[B] {
	return &RDD[B]{
		ctx:      r.ctx,
		name:     r.name + "|map",
		numParts: r.numParts,
		compute: func(part int) []B {
			in := r.partition(part)
			out := make([]B, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// FlatMap applies f elementwise and concatenates the results.
func FlatMap[A, B any](r *RDD[A], f func(A) []B) *RDD[B] {
	return &RDD[B]{
		ctx:      r.ctx,
		name:     r.name + "|flatMap",
		numParts: r.numParts,
		compute: func(part int) []B {
			in := r.partition(part)
			var out []B
			for _, v := range in {
				out = append(out, f(v)...)
			}
			return out
		},
	}
}

// Filter keeps elements satisfying pred.
func Filter[T any](r *RDD[T], pred func(T) bool) *RDD[T] {
	return &RDD[T]{
		ctx:      r.ctx,
		name:     r.name + "|filter",
		numParts: r.numParts,
		compute: func(part int) []T {
			in := r.partition(part)
			out := make([]T, 0, len(in))
			for _, v := range in {
				if pred(v) {
					out = append(out, v)
				}
			}
			return out
		},
	}
}

// MapPartitions transforms whole partitions at once.
func MapPartitions[A, B any](r *RDD[A], f func(part int, in []A) []B) *RDD[B] {
	return &RDD[B]{
		ctx:      r.ctx,
		name:     r.name + "|mapPartitions",
		numParts: r.numParts,
		compute:  func(part int) []B { return f(part, r.partition(part)) },
	}
}

// ---- Actions ----

// Collect materializes the RDD into a single slice.
func (r *RDD[T]) Collect() []T {
	parts := r.materialize(r.name + "|collect")
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Count returns the number of elements.
func (r *RDD[T]) Count() int64 {
	parts := r.materialize(r.name + "|count")
	var n int64
	for _, p := range parts {
		n += int64(len(p))
	}
	return n
}

// Take returns up to n elements (materializes the whole RDD; this substrate
// has no partial evaluation).
func (r *RDD[T]) Take(n int) []T {
	all := r.Collect()
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// Reduce folds all elements with an associative, commutative f. The second
// result is false for an empty RDD.
func Reduce[T any](r *RDD[T], f func(T, T) T) (T, bool) {
	parts := r.materialize(r.name + "|reduce")
	var acc T
	have := false
	for _, p := range parts {
		for _, v := range p {
			if !have {
				acc, have = v, true
			} else {
				acc = f(acc, v)
			}
		}
	}
	return acc, have
}

// Aggregate folds each partition with seqOp from zero, then merges the
// per-partition results with combOp.
func Aggregate[T, U any](r *RDD[T], zero func() U, seqOp func(U, T) U, combOp func(U, U) U) U {
	parts := r.materialize(r.name + "|aggregate")
	partial := make([]U, len(parts))
	r.ctx.runTasks(len(parts), func(i int) {
		acc := zero()
		for _, v := range parts[i] {
			acc = seqOp(acc, v)
		}
		partial[i] = acc
	})
	acc := zero()
	for _, p := range partial {
		acc = combOp(acc, p)
	}
	return acc
}
