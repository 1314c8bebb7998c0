package rdd

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

// hashKey routes key to one of mod partitions: FNV-1a 64 over the key's
// bytes, modulo mod. Computed inline so routing allocates nothing per
// element; the values match hash/fnv's New64a exactly.
func hashKey(key string, mod int) int {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-1a 64 prime
	}
	return int(h % uint64(mod))
}

// exchangeByKey hash-partitions r by key into numOut partitions: an
// ExchangePartitions whose split routes each element by hashKey, keeping
// source-partition order and, within one source, element order.
func exchangeByKey[T any](r *RDD[T], key func(T) string, numOut int, stage string) *RDD[T] {
	return ExchangePartitions(r, numOut, stage, func(_ int, in []T) [][]T {
		out := make([][]T, numOut)
		for _, v := range in {
			d := hashKey(key(v), numOut)
			out[d] = append(out[d], v)
		}
		return out
	})
}

// GroupByKey shuffles elements so all elements with equal keys land in one
// group. Keys are strings (ScrubJay rows derive canonical key strings from
// their domain columns). Groups appear in first-seen order per partition.
func GroupByKey[T any](r *RDD[T], key func(T) string) *RDD[Group[T]] {
	ex := exchangeByKey(r, key, r.numParts, r.name+"|groupByKey")
	out := MapPartitions(ex, func(_ int, in []T) []Group[T] {
		byKey := make(map[string]int)
		var groups []Group[T]
		for _, v := range in {
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
	})
	out.name = r.name + "|groupByKey"
	return out
}

// CoGroup shuffles two RDDs by key so that, per key, all left and right
// elements meet in one partition: one keyed exchange per side, then a
// partition-wise grouping of both. It is the primitive beneath ScrubJay's
// natural join.
func CoGroup[A, B any](a *RDD[A], b *RDD[B], keyA func(A) string, keyB func(B) string) *RDD[CoGrouped[A, B]] {
	if a.ctx != b.ctx {
		panic("rdd.CoGroup: RDDs from different contexts")
	}
	numOut := max(a.numParts, b.numParts)
	ea := exchangeByKey(a, keyA, numOut, a.name+"|cogroup-left")
	eb := exchangeByKey(b, keyB, numOut, b.name+"|cogroup-right")
	out := ZipPartitions(ea, eb, func(_ int, as []A, bs []B) []CoGrouped[A, B] {
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
		for _, v := range as {
			idx := at(keyA(v))
			groups[idx].Left = append(groups[idx].Left, v)
		}
		for _, v := range bs {
			idx := at(keyB(v))
			groups[idx].Right = append(groups[idx].Right, v)
		}
		return groups
	})
	out.name = "cogroup(" + a.name + "," + b.name + ")"
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
