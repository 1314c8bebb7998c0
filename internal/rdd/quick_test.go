package rdd

import (
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

// Algebraic laws of the data-parallel substrate, checked on random inputs.

func sortedCopy(xs []int) []int {
	c := append([]int(nil), xs...)
	sort.Ints(c)
	return c
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQuickCollectPreservesMultiset(t *testing.T) {
	prop := func(data []int, parts uint8) bool {
		ctx := NewContext(2)
		p := int(parts%8) + 1
		got := Parallelize(ctx, data, p).Collect()
		return equalInts(sortedCopy(got), sortedCopy(data))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMapFusionLaw(t *testing.T) {
	// Map(f) then Map(g) == Map(g∘f).
	f := func(x int) int { return x*3 + 1 }
	g := func(x int) int { return x - 7 }
	prop := func(data []int, parts uint8) bool {
		ctx := NewContext(2)
		p := int(parts%6) + 1
		chained := Map(Map(Parallelize(ctx, data, p), f), g).Collect()
		fused := Map(Parallelize(ctx, data, p), func(x int) int { return g(f(x)) }).Collect()
		return equalInts(sortedCopy(chained), sortedCopy(fused))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickFilterThenCountConsistent(t *testing.T) {
	prop := func(data []int, parts uint8) bool {
		ctx := NewContext(2)
		p := int(parts%6) + 1
		pred := func(x int) bool { return x%2 == 0 }
		got := Filter(Parallelize(ctx, data, p), pred).Count()
		var want int64
		for _, x := range data {
			if pred(x) {
				want++
			}
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickGroupByKeyPartition(t *testing.T) {
	// GroupByKey partitions the input: group sizes sum to the input size,
	// every element lands in the group of its key, keys are distinct.
	prop := func(data []int16, parts uint8) bool {
		ctx := NewContext(3)
		p := int(parts%6) + 1
		xs := make([]int, len(data))
		for i, d := range data {
			xs[i] = int(d)
		}
		key := func(x int) string { return strconv.Itoa(((x % 5) + 5) % 5) }
		groups := GroupByKey(Parallelize(ctx, xs, p), key).Collect()
		seen := map[string]bool{}
		total := 0
		for _, g := range groups {
			if seen[g.Key] {
				return false
			}
			seen[g.Key] = true
			for _, v := range g.Items {
				if key(v) != g.Key {
					return false
				}
			}
			total += len(g.Items)
		}
		return total == len(xs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinSizeIsProductOfKeyCounts(t *testing.T) {
	prop := func(a, b []uint8) bool {
		ctx := NewContext(2)
		xs := make([]int, len(a))
		for i, v := range a {
			xs[i] = int(v % 4)
		}
		ys := make([]int, len(b))
		for i, v := range b {
			ys[i] = int(v % 4)
		}
		key := func(x int) string { return strconv.Itoa(x) }
		joined := JoinHash(Parallelize(ctx, xs, 2), Parallelize(ctx, ys, 3), key, key).Count()
		// Expected size: sum over keys of count_left * count_right.
		cl := map[int]int64{}
		cr := map[int]int64{}
		for _, x := range xs {
			cl[x]++
		}
		for _, y := range ys {
			cr[y]++
		}
		var want int64
		for k, n := range cl {
			want += n * cr[k]
		}
		return joined == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
