package rdd

import (
	"hash/fnv"
	"sync/atomic"
)

// Group is one key's bucket after a GroupByKey.
type Group[T any] struct {
	Key   string
	Items []T
}

// CoGrouped is one key's buckets from both sides of a CoGroup.
type CoGrouped[A, B any] struct {
	Key   string
	Left  []A
	Right []B
}

// Pair is a joined element.
type Pair[A, B any] struct {
	Left  A
	Right B
}

func hashKey(key string, mod int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(mod))
}

// shuffleExchange materializes r, then hash-partitions every element by key
// into numOut buckets. It returns the destination partitions and the total
// number of rows exchanged.
func shuffleExchange[T any](r *RDD[T], key func(T) string, numOut int, stage string) ([][]T, int64) {
	srcParts := r.materialize(stage + "|shuffle-write")
	// Per-source bucketing runs in parallel; the concatenation per
	// destination ("shuffle read") is cheap appends.
	buckets := make([][][]T, len(srcParts)) // [src][dst][]T
	var moved int64
	r.ctx.runTasks(len(srcParts), func(i int) {
		local := make([][]T, numOut)
		for _, v := range srcParts[i] {
			d := hashKey(key(v), numOut)
			local[d] = append(local[d], v)
		}
		buckets[i] = local
		atomic.AddInt64(&moved, int64(len(srcParts[i])))
	})
	// Distributed path: when the Context has a Placement and the RDD a wire
	// codec, the buckets cross the cluster data plane instead. The merged
	// payloads preserve (src, seq) order, so both paths produce identical
	// destination partitions element for element.
	if dst, ok := exchangeVia(r.ctx, r.wire, stage, numOut, buckets); ok {
		return dst, moved
	}
	dst := make([][]T, numOut)
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
	return dst, moved
}

// GroupByKey shuffles elements so all elements with equal keys land in one
// group. Keys are strings (ScrubJay rows derive canonical key strings from
// their domain columns).
func GroupByKey[T any](r *RDD[T], key func(T) string) *RDD[Group[T]] {
	dst, moved := shuffleExchange(r, key, r.numParts, r.name+"|groupByKey")
	ctx := r.ctx
	out := &RDD[Group[T]]{
		ctx:      ctx,
		name:     r.name + "|groupByKey",
		numParts: len(dst),
		compute: func(part int) []Group[T] {
			byKey := make(map[string]int)
			var groups []Group[T]
			for _, v := range dst[part] {
				k := key(v)
				idx, ok := byKey[k]
				if !ok {
					idx = len(groups)
					byKey[k] = idx
					groups = append(groups, Group[T]{Key: k})
				}
				groups[idx].Items = append(groups[idx].Items, v)
			}
			return groups
		},
	}
	ctx.recordShuffle(out.name+"|exchange", moved)
	return out
}

// ReduceByKey combines elements sharing a key with an associative merge.
// Combining happens map-side before the exchange, so shuffle volume is one
// element per (partition, key) — the classic wordcount optimization.
func ReduceByKey[T any](r *RDD[T], key func(T) string, merge func(T, T) T) *RDD[Group[T]] {
	combined := MapPartitions(r, func(_ int, in []T) []Group[T] {
		byKey := make(map[string]int)
		var groups []Group[T]
		for _, v := range in {
			k := key(v)
			idx, ok := byKey[k]
			if !ok {
				byKey[k] = len(groups)
				groups = append(groups, Group[T]{Key: k, Items: []T{v}})
				continue
			}
			groups[idx].Items[0] = merge(groups[idx].Items[0], v)
		}
		return groups
	})
	combined.name = r.name + "|reduceByKey-local"
	grouped := GroupByKey(combined, func(g Group[T]) string { return g.Key })
	out := Map(grouped, func(g Group[Group[T]]) Group[T] {
		acc := g.Items[0].Items[0]
		for _, sub := range g.Items[1:] {
			acc = merge(acc, sub.Items[0])
		}
		return Group[T]{Key: g.Key, Items: []T{acc}}
	})
	out.name = r.name + "|reduceByKey"
	return out
}

// CoGroup shuffles two RDDs by key so that, per key, all left and right
// elements meet in one partition. It is the primitive beneath ScrubJay's
// natural join.
func CoGroup[A, B any](a *RDD[A], b *RDD[B], keyA func(A) string, keyB func(B) string) *RDD[CoGrouped[A, B]] {
	if a.ctx != b.ctx {
		panic("rdd.CoGroup: RDDs from different contexts")
	}
	numOut := a.numParts
	if b.numParts > numOut {
		numOut = b.numParts
	}
	dstA, movedA := shuffleExchange(a, keyA, numOut, a.name+"|cogroup-left")
	dstB, movedB := shuffleExchange(b, keyB, numOut, b.name+"|cogroup-right")
	ctx := a.ctx
	out := &RDD[CoGrouped[A, B]]{
		ctx:      ctx,
		name:     "cogroup(" + a.name + "," + b.name + ")",
		numParts: numOut,
		compute: func(part int) []CoGrouped[A, B] {
			byKey := make(map[string]int)
			var groups []CoGrouped[A, B]
			at := func(k string) int {
				idx, ok := byKey[k]
				if !ok {
					idx = len(groups)
					byKey[k] = idx
					groups = append(groups, CoGrouped[A, B]{Key: k})
				}
				return idx
			}
			for _, v := range dstA[part] {
				idx := at(keyA(v))
				groups[idx].Left = append(groups[idx].Left, v)
			}
			for _, v := range dstB[part] {
				idx := at(keyB(v))
				groups[idx].Right = append(groups[idx].Right, v)
			}
			return groups
		},
	}
	ctx.recordShuffle(out.name+"|exchange", movedA+movedB)
	return out
}

// JoinHash computes the inner hash join of a and b on string keys,
// producing the cross product of matching groups.
func JoinHash[A, B any](a *RDD[A], b *RDD[B], keyA func(A) string, keyB func(B) string) *RDD[Pair[A, B]] {
	cg := CoGroup(a, b, keyA, keyB)
	out := FlatMap(cg, func(g CoGrouped[A, B]) []Pair[A, B] {
		if len(g.Left) == 0 || len(g.Right) == 0 {
			return nil
		}
		pairs := make([]Pair[A, B], 0, len(g.Left)*len(g.Right))
		for _, l := range g.Left {
			for _, r := range g.Right {
				pairs = append(pairs, Pair[A, B]{Left: l, Right: r})
			}
		}
		return pairs
	})
	out.name = "join(" + a.name + "," + b.name + ")"
	return out
}

// BroadcastJoin joins a large RDD against a small right side by replicating
// the right side to every partition, avoiding a shuffle of the left side.
// It is the ablation comparator for JoinHash on small dimension tables
// (e.g. the node-layout dataset).
func BroadcastJoin[A, B any](a *RDD[A], small []B, keyA func(A) string, keyB func(B) string) *RDD[Pair[A, B]] {
	index := make(map[string][]B)
	for _, v := range small {
		k := keyB(v)
		index[k] = append(index[k], v)
	}
	out := FlatMap(a, func(l A) []Pair[A, B] {
		matches := index[keyA(l)]
		if len(matches) == 0 {
			return nil
		}
		pairs := make([]Pair[A, B], len(matches))
		for i, r := range matches {
			pairs[i] = Pair[A, B]{Left: l, Right: r}
		}
		return pairs
	})
	out.name = "broadcastJoin(" + a.name + ")"
	return out
}

// Repartition redistributes elements round-robin into numParts partitions
// (a full shuffle).
func Repartition[T any](r *RDD[T], numParts int) *RDD[T] {
	if numParts < 1 {
		numParts = 1
	}
	srcParts := r.materialize(r.name + "|repartition-write")
	var all []T
	for _, p := range srcParts {
		all = append(all, p...)
	}
	out := Parallelize(r.ctx, all, numParts)
	out.name = r.name + "|repartition"
	r.ctx.recordShuffle(out.name, int64(len(all)))
	return out
}

// Distinct removes duplicate elements, where identity is the key function's
// string (rows use their canonical rendering). One exchange, then local
// dedup per partition.
func Distinct[T any](r *RDD[T], key func(T) string) *RDD[T] {
	grouped := GroupByKey(r, key)
	out := Map(grouped, func(g Group[T]) T { return g.Items[0] })
	out.name = r.name + "|distinct"
	return out
}

// CountByKey returns the number of elements per key, computed with map-side
// combining so shuffle volume is one counter per (partition, key).
func CountByKey[T any](r *RDD[T], key func(T) string) map[string]int64 {
	type kc struct {
		k string
		n int64
	}
	local := MapPartitions(r, func(_ int, in []T) []kc {
		m := map[string]int64{}
		for _, v := range in {
			m[key(v)]++
		}
		out := make([]kc, 0, len(m))
		for k, n := range m {
			out = append(out, kc{k, n})
		}
		return out
	})
	local.name = r.name + "|countByKey-local"
	reduced := ReduceByKey(local, func(e kc) string { return e.k }, func(a, b kc) kc {
		a.n += b.n
		return a
	})
	out := map[string]int64{}
	for _, g := range reduced.Collect() {
		out[g.Key] = g.Items[0].n
	}
	return out
}
