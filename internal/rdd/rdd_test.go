package rdd

import (
	"hash/fnv"
	"sort"
	"strconv"
	"testing"
)

func intsUpTo(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

func TestParallelizeCollectPreservesAll(t *testing.T) {
	ctx := NewContext(4)
	for _, parts := range []int{1, 3, 7, 16} {
		r := Parallelize(ctx, intsUpTo(100), parts)
		if r.NumPartitions() != parts {
			t.Fatalf("NumPartitions = %d", r.NumPartitions())
		}
		got := r.Collect()
		if len(got) != 100 {
			t.Fatalf("parts=%d: collected %d", parts, len(got))
		}
		sort.Ints(got)
		for i, v := range got {
			if v != i {
				t.Fatalf("parts=%d: got[%d]=%d", parts, i, v)
			}
		}
	}
}

func TestParallelizeDefaultsAndEmpty(t *testing.T) {
	ctx := NewContext(3)
	r := Parallelize(ctx, []int{}, 0)
	if r.NumPartitions() != 3 {
		t.Errorf("default partitions = %d, want workers", r.NumPartitions())
	}
	if n := r.Count(); n != 0 {
		t.Errorf("empty count = %d", n)
	}
	if got := r.Collect(); len(got) != 0 {
		t.Errorf("empty collect = %v", got)
	}
}

func TestGenerate(t *testing.T) {
	ctx := NewContext(2)
	r := Generate(ctx, 10, 4, func(i int) int { return i * i })
	got := r.Collect()
	sort.Ints(got)
	for i := 0; i < 10; i++ {
		if got[i] != i*i {
			t.Fatalf("got[%d] = %d", i, got[i])
		}
	}
}

func TestMapFilterFlatMapFuse(t *testing.T) {
	ctx := NewContext(4)
	r := Parallelize(ctx, intsUpTo(20), 4)
	doubled := Map(r, func(x int) int { return 2 * x })
	evensOnly := Filter(doubled, func(x int) bool { return x%4 == 0 })
	expanded := FlatMap(evensOnly, func(x int) []int { return []int{x, x + 1} })
	ctx.ResetMetrics()
	got := expanded.Collect()
	if len(got) != 20 {
		t.Fatalf("len = %d, want 20", len(got))
	}
	// Narrow chain should execute as a single stage.
	m := ctx.SnapshotMetrics()
	if len(m.Stages) != 1 {
		t.Errorf("narrow chain ran %d stages, want 1", len(m.Stages))
	}
}

func TestMapPartitions(t *testing.T) {
	ctx := NewContext(2)
	r := Parallelize(ctx, intsUpTo(10), 5)
	sums := MapPartitions(r, func(_ int, in []int) []int {
		s := 0
		for _, v := range in {
			s += v
		}
		return []int{s}
	})
	got := sums.Collect()
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 45 {
		t.Errorf("total = %d", total)
	}
}

func TestReduceAndAggregate(t *testing.T) {
	ctx := NewContext(4)
	r := Parallelize(ctx, intsUpTo(101), 7)
	sum, ok := Reduce(r, func(a, b int) int { return a + b })
	if !ok || sum != 5050 {
		t.Errorf("Reduce = %d, %v", sum, ok)
	}
	_, ok = Reduce(Parallelize(ctx, []int{}, 2), func(a, b int) int { return a + b })
	if ok {
		t.Error("empty Reduce should report !ok")
	}
	count := Aggregate(r,
		func() int { return 0 },
		func(acc, _ int) int { return acc + 1 },
		func(a, b int) int { return a + b })
	if count != 101 {
		t.Errorf("Aggregate count = %d", count)
	}
}

func TestTake(t *testing.T) {
	ctx := NewContext(2)
	r := Parallelize(ctx, intsUpTo(10), 3)
	if got := r.Take(3); len(got) != 3 {
		t.Errorf("Take(3) = %v", got)
	}
	if got := r.Take(99); len(got) != 10 {
		t.Errorf("Take(99) = %v", got)
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := NewContext(2)
	calls := 0
	r := &RDD[int]{
		ctx:      ctx,
		name:     "counted",
		numParts: 1,
		compute: func(part int) []int {
			calls++ //sjvet:ignore purity -- numParts is 1, so exactly one partition (and one goroutine) runs this closure
			return []int{1, 2, 3}
		},
	}
	r.Cache()
	r.Collect()
	r.Collect()
	r.Count()
	if calls != 1 {
		t.Errorf("cached compute ran %d times, want 1", calls)
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := NewContext(4)
	r := Parallelize(ctx, intsUpTo(100), 8)
	groups := GroupByKey(r, func(x int) string { return strconv.Itoa(x % 7) }).Collect()
	if len(groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(groups))
	}
	total := 0
	for _, g := range groups {
		mod, _ := strconv.Atoi(g.Key)
		for _, v := range g.Items {
			if v%7 != mod {
				t.Errorf("item %d in group %s", v, g.Key)
			}
		}
		total += len(g.Items)
	}
	if total != 100 {
		t.Errorf("total grouped items = %d", total)
	}
}

func TestCoGroupAndJoin(t *testing.T) {
	ctx := NewContext(4)
	left := Parallelize(ctx, []string{"a1", "a2", "b1", "c1"}, 2)
	right := Parallelize(ctx, []string{"aX", "bX", "bY", "dX"}, 2)
	kl := func(s string) string { return s[:1] }
	kr := func(s string) string { return s[:1] }

	cg := CoGroup(left, right, kl, kr).Collect()
	byKey := map[string]CoGrouped[string, string]{}
	for _, g := range cg {
		byKey[g.Key] = g
	}
	if len(byKey) != 4 {
		t.Fatalf("cogroup keys = %d, want 4 (a,b,c,d)", len(byKey))
	}
	if len(byKey["a"].Left) != 2 || len(byKey["a"].Right) != 1 {
		t.Errorf("a group = %+v", byKey["a"])
	}
	if len(byKey["d"].Left) != 0 || len(byKey["d"].Right) != 1 {
		t.Errorf("d group = %+v", byKey["d"])
	}

	joined := JoinHash(left, right, kl, kr).Collect()
	// a: 2x1=2 pairs, b: 1x2=2 pairs, c and d unmatched.
	if len(joined) != 4 {
		t.Fatalf("join size = %d, want 4: %v", len(joined), joined)
	}
	for _, p := range joined {
		if p.Left[:1] != p.Right[:1] {
			t.Errorf("mismatched pair %v", p)
		}
	}
}

// TestCoGroupDifferentContextsPanics: mixing contexts is a programming
// error caught before either side's exchange materializes anything.
func TestCoGroupDifferentContextsPanics(t *testing.T) {
	computed := false
	a := &RDD[int]{ctx: NewContext(1), name: "a", numParts: 1, compute: func(int) []int {
		computed = true //sjvet:ignore purity -- the test asserts this closure never runs
		return nil
	}}
	b := Parallelize(NewContext(1), []int{2}, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
		if computed {
			t.Error("an exchange ran before the context check")
		}
	}()
	k := func(v int) string { return strconv.Itoa(v) }
	CoGroup(a, b, k, k)
}

// TestHashKeyMatchesFNV pins key routing to FNV-1a 64 modulo the partition
// count. Routing decides which partition, and so which position, every
// grouped row lands in; a silent change would reorder results on every path
// at once, where local-vs-distributed comparisons cannot see it.
func TestHashKeyMatchesFNV(t *testing.T) {
	keys := []string{"", "a", "k7", "rack_temperatures|node-17", "héllo", "温度", "\x00\xff"}
	for _, k := range keys {
		h := fnv.New64a()
		h.Write([]byte(k))
		sum := h.Sum64()
		for _, m := range []int{1, 2, 3, 7, 8, 64, 1000003} {
			if got, want := hashKey(k, m), int(sum%uint64(m)); got != want {
				t.Errorf("hashKey(%q, %d) = %d, want %d", k, m, got, want)
			}
		}
	}
}

func TestShuffleMetricsRecorded(t *testing.T) {
	ctx := NewContext(2)
	ctx.ResetMetrics()
	r := Parallelize(ctx, intsUpTo(100), 4)
	GroupByKey(r, func(x int) string { return strconv.Itoa(x % 3) }).Collect()
	m := ctx.SnapshotMetrics()
	if m.TotalShuffleRows() != 100 {
		t.Errorf("shuffle rows = %d, want 100", m.TotalShuffleRows())
	}
	var sawShuffle bool
	for _, s := range m.Stages {
		if s.Shuffle {
			sawShuffle = true
		}
	}
	if !sawShuffle {
		t.Error("no shuffle stage recorded")
	}
	if m.TotalTaskTime() < 0 {
		t.Error("negative task time")
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic to propagate")
		}
	}()
	ctx := NewContext(2)
	r := Map(Parallelize(ctx, intsUpTo(10), 4), func(x int) int {
		if x == 7 {
			panic("boom")
		}
		return x
	})
	r.Collect()
}

func TestContextDefaults(t *testing.T) {
	if NewContext(0).Workers() < 1 {
		t.Error("default workers < 1")
	}
	if NewContext(-5).Workers() < 1 {
		t.Error("negative workers")
	}
}

func TestNameAndWithName(t *testing.T) {
	ctx := NewContext(1)
	r := Parallelize(ctx, []int{1}, 1).WithName("custom")
	if r.Name() != "custom" {
		t.Errorf("Name = %q", r.Name())
	}
	if r.Context() != ctx {
		t.Error("Context identity")
	}
}
