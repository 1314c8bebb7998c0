package rdd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// fakePlacement is an in-memory Placement implementing the documented merge
// contract (concatenate enc[src][dst] in ascending src order). It records
// how many exchanges it served so tests can assert the distributed path
// actually ran.
type fakePlacement struct {
	exchanges int
	fail      error
}

func (p *fakePlacement) Exchange(ctx context.Context, stage string, numOut int, enc [][][]byte) ([][]byte, error) {
	if p.fail != nil {
		return nil, p.fail
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.exchanges++
	out := make([][]byte, numOut)
	for d := 0; d < numOut; d++ {
		var merged []byte
		for s := range enc {
			merged = append(merged, enc[s][d]...)
		}
		out[d] = merged
	}
	return out, nil
}

var intWire = &Wire[int]{
	Append: func(buf []byte, v int) []byte { return binary.AppendVarint(buf, int64(v)) },
	Decode: func(b []byte) (int, int, error) {
		v, n := binary.Varint(b)
		if n <= 0 {
			return 0, 0, fmt.Errorf("truncated int")
		}
		return int(v), n, nil
	},
}

func sortedGroups(gs []Group[int]) []Group[int] {
	out := append([]Group[int](nil), gs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for _, g := range out {
		sort.Ints(g.Items)
	}
	return out
}

// TestGroupByKeyDistributedMatchesLocal pins the bit-for-bit contract at
// the rdd layer: the same GroupByKey (and CoGroup) over the same data
// produces identical groups (keys, members, and order) with and without a
// Placement.
func TestGroupByKeyDistributedMatchesLocal(t *testing.T) {
	data := make([]int, 500)
	for i := range data {
		data[i] = i * 7 % 131
	}
	key := func(v int) string { return fmt.Sprintf("k%d", v%13) }

	local := GroupByKey(Parallelize(NewContext(4), data, 8), key).Collect()

	fake := &fakePlacement{}
	ctx := NewContext(4).WithPlacement(fake)
	dist := GroupByKey(WithWire(Parallelize(ctx, data, 8), intWire), key).Collect()

	if fake.exchanges == 0 {
		t.Fatal("distributed path never ran")
	}
	// Element order inside partitions must match exactly, which makes the
	// raw Collect outputs comparable without sorting.
	if !reflect.DeepEqual(local, dist) {
		t.Fatalf("distributed grouping differs from local:\nlocal %v\ndist  %v", sortedGroups(local), sortedGroups(dist))
	}

	// CoGroup: both sides cross the same Placement, one exchange each.
	cogroup := func(c *Context) []CoGrouped[int, int] {
		a := WithWire(Parallelize(c, data, 8), intWire)
		b := WithWire(Parallelize(c, data[:200], 3), intWire)
		return CoGroup(a, b, key, key).Collect()
	}
	localCG := cogroup(NewContext(4))
	fake = &fakePlacement{}
	distCG := cogroup(NewContext(4).WithPlacement(fake))
	if fake.exchanges != 2 {
		t.Fatalf("cogroup ran %d distributed exchanges, want 2", fake.exchanges)
	}
	if !reflect.DeepEqual(localCG, distCG) {
		t.Fatalf("distributed cogroup differs from local:\nlocal %v\ndist  %v", localCG, distCG)
	}
}

// TestExchangePartitionsDistributedMatchesLocal does the same for the
// batch-granular exchange.
func TestExchangePartitionsDistributedMatchesLocal(t *testing.T) {
	data := make([]int, 300)
	for i := range data {
		data[i] = i
	}
	const numOut = 5
	split := func(_ int, in []int) [][]int {
		out := make([][]int, numOut)
		for _, v := range in {
			d := v % numOut
			out[d] = append(out[d], v)
		}
		return out
	}

	run := func(p Placement) [][]int {
		c := NewContext(4)
		if p != nil {
			c = c.WithPlacement(p)
		}
		r := WithWire(Parallelize(c, data, 6), intWire)
		ex := ExchangePartitions(r, numOut, "test-exchange", split)
		parts := make([][]int, ex.NumPartitions())
		for i := range parts {
			parts[i] = ex.partition(i)
		}
		return parts
	}

	fake := &fakePlacement{}
	local, dist := run(nil), run(fake)
	if fake.exchanges != 1 {
		t.Fatalf("expected 1 exchange, saw %d", fake.exchanges)
	}
	if !reflect.DeepEqual(local, dist) {
		t.Fatalf("distributed exchange differs:\nlocal %v\ndist  %v", local, dist)
	}
}

// TestNoWireStaysLocal: an RDD without a wire shuffles in-process even when
// the Context has a Placement.
func TestNoWireStaysLocal(t *testing.T) {
	fake := &fakePlacement{}
	ctx := NewContext(2).WithPlacement(fake)
	got := GroupByKey(Parallelize(ctx, []int{1, 2, 3, 4}, 2), func(v int) string { return fmt.Sprint(v % 2) }).Collect()
	if fake.exchanges != 0 {
		t.Fatalf("wire-less shuffle used the placement (%d exchanges)", fake.exchanges)
	}
	if len(got) != 2 {
		t.Fatalf("got %d groups", len(got))
	}
}

// TestExchangeFailureSurfacesAsError: a placement failure reaches the
// caller as *ExecFailure through Guard, not as a raw panic.
func TestExchangeFailureSurfacesAsError(t *testing.T) {
	fake := &fakePlacement{fail: errors.New("cluster down")}
	ctx := NewContext(2).WithPlacement(fake)
	r := WithWire(Parallelize(ctx, []int{1, 2, 3}, 2), intWire)
	_, err := Guard(func() []Group[int] {
		return GroupByKey(r, func(v int) string { return "k" }).Collect()
	})
	var ef *ExecFailure
	if !errors.As(err, &ef) {
		t.Fatalf("want *ExecFailure, got %v", err)
	}
}

// TestExchangeCancellationSurfacesAsCanceled: a placement error caused by
// context cancellation converts to *Canceled, matching the in-process
// cancellation contract.
func TestExchangeCancellationSurfacesAsCanceled(t *testing.T) {
	fake := &fakePlacement{fail: context.Canceled}
	ctx := NewContext(2).WithPlacement(fake)
	r := WithWire(Parallelize(ctx, []int{1, 2, 3}, 2), intWire)
	_, err := Guard(func() []Group[int] {
		return GroupByKey(r, func(v int) string { return "k" }).Collect()
	})
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("want *Canceled, got %v", err)
	}
}

// TestWithPlacementCarriesThroughWithGoContext: the serving layer derives
// contexts via WithGoContext after WithPlacement; the placement must ride
// along.
func TestWithPlacementCarriesThroughWithGoContext(t *testing.T) {
	fake := &fakePlacement{}
	c := NewContext(2).WithPlacement(fake).WithGoContext(context.Background())
	if c.Placement() != fake {
		t.Fatal("WithGoContext dropped the placement")
	}
}
