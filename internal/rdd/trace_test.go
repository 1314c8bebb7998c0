package rdd

import (
	"strconv"
	"testing"
	"time"

	"scrubjay/internal/obs"
)

// runShuffleJob executes the same groupByKey job every trace test uses:
// 3 source partitions of 4 ints each, grouped by parity, then collected.
func runShuffleJob(ctx *Context) {
	r := FromPartitions(ctx, [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}})
	g := GroupByKey(r, func(v int) string { return strconv.Itoa(v % 2) })
	if got := len(g.Collect()); got != 2 {
		panic("groups = " + strconv.Itoa(got))
	}
}

// TestMetricsFromSpansShape pins the legacy StageMetrics shape: deriving
// Metrics from the span tree must produce the same stage sequence the old
// parallel stage log recorded.
func TestMetricsFromSpansShape(t *testing.T) {
	ctx := NewContext(2)
	ctx.ResetMetrics()
	runShuffleJob(ctx)
	m := ctx.SnapshotMetrics()

	wantStages := []struct {
		name    string
		shuffle bool
		rows    int64
		tasks   int
	}{
		{"fromPartitions|groupByKey|exchange-write", false, 0, 3},
		{"fromPartitions|groupByKey|exchange", true, 12, 0},
		{"fromPartitions|groupByKey|collect", false, 0, 3},
	}
	if len(m.Stages) != len(wantStages) {
		t.Fatalf("stages = %d, want %d: %+v", len(m.Stages), len(wantStages), m.Stages)
	}
	for i, want := range wantStages {
		st := m.Stages[i]
		if st.ID != i {
			t.Errorf("stage %d: ID = %d", i, st.ID)
		}
		if st.Name != want.name {
			t.Errorf("stage %d: name = %q, want %q", i, st.Name, want.name)
		}
		if st.Shuffle != want.shuffle || st.ShuffleRows != want.rows {
			t.Errorf("stage %d: shuffle = %v/%d, want %v/%d",
				i, st.Shuffle, st.ShuffleRows, want.shuffle, want.rows)
		}
		if len(st.Tasks) != want.tasks {
			t.Errorf("stage %d: tasks = %d, want %d", i, len(st.Tasks), want.tasks)
		}
		for p, task := range st.Tasks {
			if task.Partition != p {
				t.Errorf("stage %d task %d: partition = %d", i, p, task.Partition)
			}
		}
	}
	if m.TotalShuffleRows() != 12 {
		t.Errorf("TotalShuffleRows = %d, want 12", m.TotalShuffleRows())
	}
	// Per-task row counts: the write stage re-emits its 4-row inputs.
	var rows int64
	for _, task := range m.Stages[0].Tasks {
		rows += task.RowsOut
	}
	if rows != 12 {
		t.Errorf("write-stage rows out = %d, want 12", rows)
	}
}

// TestCoGroupTracesOneExchangePerSide pins CoGroup's trace shape: each side
// records its own write stage and exchange, sized by that side's rows, the
// same shape the columnar join traces.
func TestCoGroupTracesOneExchangePerSide(t *testing.T) {
	ctx := NewContext(2)
	ctx.ResetMetrics()
	left := FromPartitions(ctx, [][]int{{1, 2, 3}, {4, 5}}).WithName("L")
	right := FromPartitions(ctx, [][]int{{2}, {4, 6}, {8, 10, 12, 14}}).WithName("R")
	key := func(v int) string { return strconv.Itoa(v % 4) }
	CoGroup(left, right, key, key).Collect()

	want := []struct {
		name  string
		rows  int64
		tasks int
	}{
		{"L|cogroup-left|exchange-write", 0, 2},
		{"L|cogroup-left|exchange", 5, 0},
		{"R|cogroup-right|exchange-write", 0, 3},
		{"R|cogroup-right|exchange", 7, 0},
		{"cogroup(L,R)|collect", 0, 3},
	}
	m := ctx.SnapshotMetrics()
	if len(m.Stages) != len(want) {
		t.Fatalf("stages = %d, want %d: %+v", len(m.Stages), len(want), m.Stages)
	}
	for i, w := range want {
		st := m.Stages[i]
		if st.Name != w.name || st.ShuffleRows != w.rows || st.Shuffle != (w.rows > 0) || len(st.Tasks) != w.tasks {
			t.Errorf("stage %d = %q shuffle=%v/%d tasks=%d, want %q %d rows, %d tasks",
				i, st.Name, st.Shuffle, st.ShuffleRows, len(st.Tasks), w.name, w.rows, w.tasks)
		}
	}
	if m.TotalShuffleRows() != 12 {
		t.Errorf("TotalShuffleRows = %d, want 12", m.TotalShuffleRows())
	}
}

// TestSimulateMakespanFromSpans pins satellite invariant: SimulateMakespan
// over span-derived Metrics equals SimulateMakespan over an identical
// hand-built legacy Metrics value — the span tree is a drop-in source.
func TestSimulateMakespanFromSpans(t *testing.T) {
	ctx := NewContext(2)
	// Frozen clock: every task records zero duration, so the makespan is
	// exactly the shuffle term and fully deterministic.
	tr := obs.NewTracer("m", obs.FrozenClock())
	root := tr.Start(obs.KindExec, "m")
	ctx.SetSpan(root)
	ctx.mroot.Store(root)
	runShuffleJob(ctx)
	derived := ctx.SnapshotMetrics()

	legacy := Metrics{Stages: []StageMetrics{
		{Name: "fromPartitions|groupByKey|exchange-write", Tasks: make([]TaskMetrics, 3)},
		{Name: "fromPartitions|groupByKey|exchange", Shuffle: true, ShuffleRows: 12},
		{Name: "fromPartitions|groupByKey|collect", Tasks: make([]TaskMetrics, 3)},
	}}
	cl := PaperCluster(4)
	got := SimulateMakespan(derived, cl)
	want := SimulateMakespan(legacy, cl)
	if got != want {
		t.Fatalf("makespan from spans = %v, from legacy metrics = %v", got, want)
	}
	// And both match the analytic formula: one shuffle of 12 rows.
	bytes := 12 * cl.RowBytes
	bw := float64(cl.Nodes) * cl.NodeShuffleBandwidth
	analytic := time.Duration(bytes/bw*float64(time.Second)) + cl.ShuffleLatency
	if got != analytic {
		t.Fatalf("makespan = %v, analytic = %v", got, analytic)
	}
}

// TestUntracedRecordsNothing pins the opt-in contract: without ResetMetrics
// or SetSpan, execution records no stages.
func TestUntracedRecordsNothing(t *testing.T) {
	ctx := NewContext(2)
	runShuffleJob(ctx)
	if m := ctx.SnapshotMetrics(); len(m.Stages) != 0 {
		t.Fatalf("untraced context recorded %d stages", len(m.Stages))
	}
}

// TestWithGoContextCarriesScope pins that the serving layer's pattern —
// scope the base context, then bind a request context — keeps tracing.
func TestWithGoContextCarriesScope(t *testing.T) {
	base := NewContext(2)
	tr := obs.NewTracer("t", obs.FrozenClock())
	root := tr.Start(obs.KindQuery, "q")
	base.SetSpan(root)
	bound := base.WithGoContext(t.Context())
	if bound.Span() != root {
		t.Fatal("WithGoContext dropped the trace scope")
	}
	runShuffleJob(bound)
	if stages := root.Children(); len(stages) != 3 {
		t.Fatalf("bound context recorded %d stages, want 3", len(stages))
	}
}
