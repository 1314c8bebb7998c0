package rdd

import "sync/atomic"

// Exchange primitives. ExchangePartitions is the one function that moves
// elements between partitions: the columnar kernels use it to shuffle
// *frame.Frame batches (a split function slices each source partition's
// frames on per-row hash vectors), and GroupByKey/CoGroup use it to route
// single elements by key hash (exchangeByKey). Destinations receive the
// elements of every source in source-partition order, so columnar and row
// plans produce partitions in the same deterministic arrangement.

// ExchangePartitions materializes r and redistributes its elements into
// numOut partitions. split is called once per source partition (in
// parallel, under the rdd compute contract) and returns, for each
// destination, the elements that partition contributes. The shuffle metric
// counts rows by the same rule as stage rows_out (see rowsIn).
func ExchangePartitions[T any](r *RDD[T], numOut int, stage string, split func(part int, in []T) [][]T) *RDD[T] {
	if numOut < 1 {
		numOut = 1
	}
	srcParts := r.materialize(stage + "|exchange-write")
	buckets := make([][][]T, len(srcParts)) // [src][dst][]T
	batched := countsRows[T]()
	var moved int64
	r.ctx.runTasks(len(srcParts), func(i int) {
		local := split(i, srcParts[i])
		if len(local) != numOut {
			panic("rdd.ExchangePartitions: split returned wrong destination count")
		}
		buckets[i] = local
		var n int64
		for _, dst := range local {
			n += rowsIn(dst, batched)
		}
		atomic.AddInt64(&moved, n)
	})
	dst, distributed := exchangeVia(r.ctx, r.wire, stage, numOut, buckets)
	if !distributed {
		dst = make([][]T, numOut)
		for d := 0; d < numOut; d++ {
			var n int
			for s := range buckets {
				n += len(buckets[s][d])
			}
			part := make([]T, 0, n)
			for s := range buckets {
				part = append(part, buckets[s][d]...)
			}
			dst[d] = part
		}
	}
	out := FromPartitions(r.ctx, dst)
	out.name = stage + "|exchange"
	r.ctx.recordShuffle(out.name, moved)
	return out
}

// ZipPartitions pairs two RDDs partition-by-partition: f sees partition i
// of both sides and produces partition i of the result. Both inputs must
// share a context and partition count (the columnar join aligns both sides
// with ExchangePartitions first). f runs under the rdd compute contract.
func ZipPartitions[A, B, C any](a *RDD[A], b *RDD[B], f func(part int, as []A, bs []B) []C) *RDD[C] {
	if a.ctx != b.ctx {
		panic("rdd.ZipPartitions: RDDs from different contexts")
	}
	if a.numParts != b.numParts {
		panic("rdd.ZipPartitions: partition counts differ")
	}
	return &RDD[C]{
		ctx:      a.ctx,
		name:     "zip(" + a.name + "," + b.name + ")",
		numParts: a.numParts,
		compute: func(part int) []C {
			return f(part, a.partition(part), b.partition(part))
		},
	}
}
