package rdd

import (
	"reflect"
	"testing"
)

func TestExchangePartitionsOrderAndMetrics(t *testing.T) {
	ctx := NewContext(2)
	r := FromPartitions(ctx, [][]int{{1, 2, 3}, {4, 5}, {6}})
	// Route each element to value % 2; destinations must see sources in
	// source-partition order.
	ex := ExchangePartitions(r, 2, "test", func(_ int, in []int) [][]int {
		out := make([][]int, 2)
		for _, v := range in {
			out[v%2] = append(out[v%2], v)
		}
		return out
	})
	if ex.NumPartitions() != 2 {
		t.Fatalf("numParts = %d", ex.NumPartitions())
	}
	got := [][]int{ex.compute(0), ex.compute(1)}
	want := [][]int{{2, 4, 6}, {1, 3, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

// testBatch is a batch element type: one element carries len(rows) rows.
type testBatch struct{ rows []int }

func (b testBatch) NumRows() int { return len(b.rows) }

// TestExchangePartitionsWeight: an element type with NumRows counts rows,
// not elements, in the shuffle metric and in every stage's rows_out.
func TestExchangePartitionsWeight(t *testing.T) {
	ctx := NewContext(1)
	ctx.ResetMetrics()
	r := FromPartitions(ctx, [][]testBatch{{{[]int{1, 2, 3}}, {[]int{4}}}})
	ex := ExchangePartitions(r, 1, "w", func(_ int, in []testBatch) [][]testBatch {
		return [][]testBatch{in}
	})
	if n := len(ex.Collect()); n != 2 {
		t.Fatalf("batches = %d", n)
	}
	stages := map[string]StageMetrics{}
	for _, m := range ctx.SnapshotMetrics().Stages {
		stages[m.Name] = m
	}
	if m, ok := stages["w|exchange"]; !ok || m.ShuffleRows != 4 {
		t.Fatalf("shuffle rows metric = %+v", m)
	}
	for _, name := range []string{"w|exchange-write", "w|exchange|collect"} {
		m, ok := stages[name]
		if !ok || len(m.Tasks) != 1 || m.Tasks[0].RowsOut != 4 {
			t.Fatalf("stage %s = %+v, want one task with 4 rows out", name, m)
		}
	}
}

func TestZipPartitions(t *testing.T) {
	ctx := NewContext(2)
	a := FromPartitions(ctx, [][]int{{1, 2}, {3}})
	b := FromPartitions(ctx, [][]string{{"x"}, {"y", "z"}})
	z := ZipPartitions(a, b, func(part int, as []int, bs []string) []int {
		return []int{part, len(as), len(bs)}
	})
	got := z.Collect()
	want := []int{0, 2, 1, 1, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
