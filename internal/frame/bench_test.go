package frame

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	"scrubjay/internal/units"
	"scrubjay/internal/value"
)

// Two allocation fixes on the serving path are pinned here by measured
// allocation counts (testing.AllocsPerRun), with benchmarks alongside:
//
//   - AppendRowJSON's non-finite float cells used to render through
//     fmt.Sprintf("%g"), two allocations per NaN/Inf cell on the NDJSON
//     streaming path; they now append constant bytes (zero allocations).
//   - Merge's coalescing loop used to construct a fresh Builder (vals +
//     set, two allocations) per overlapping column; it now Reset-reuses
//     one builder across all columns of the merge.

// benchStreamFrame builds a frame shaped like a streamed result: time,
// string, finite float, and a float column that is entirely NaN/Inf (the
// shape a rate/derivative column takes over sparse input).
func benchStreamFrame(n int) *Frame {
	times := make([]int64, n)
	finite := make([]float64, n)
	rough := make([]float64, n)
	names := make([]value.Value, n)
	for i := 0; i < n; i++ {
		times[i] = int64(i) * 1_000_000_000
		finite[i] = float64(i) * 1.25
		if i%2 == 0 {
			rough[i] = math.NaN()
		} else {
			rough[i] = math.Inf(1 - 2*(i%3))
		}
		names[i] = value.Str("node-17")
	}
	return New(
		TimeColumn("time", times),
		ColumnOf("node", names),
		FloatColumn("cpu", finite),
		FloatColumn("rate", rough),
	)
}

func BenchmarkAppendRowJSON(b *testing.B) {
	f := benchStreamFrame(256)
	keys := f.EncodedKeys()
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = f.AppendRowJSON(dst[:0], i%f.NumRows(), keys)
	}
	if len(dst) == 0 {
		b.Fatal("no output")
	}
}

// TestAppendRowJSONAllocFree: encoding a row into a buffer with room makes
// no allocation, NaN/±Inf cells and dictionary-encoded strings included.
func TestAppendRowJSONAllocFree(t *testing.T) {
	plain := benchStreamFrame(256)
	nodes := make([]value.Row, plain.NumRows())
	for i := range nodes {
		nodes[i] = value.Row{"node": value.Str("node-" + strconv.Itoa(i%8))}
	}
	coded := plain.With(*FromRows(nodes).Col("node"))
	if !coded.Col("node").DictEncoded() {
		t.Fatal("node column is not dictionary-encoded")
	}
	for _, f := range []*Frame{plain, coded} {
		keys := f.EncodedKeys()
		var dst []byte
		allocs := testing.AllocsPerRun(20, func() {
			for r := 0; r < f.NumRows(); r++ {
				dst = f.AppendRowJSON(dst[:0], r, keys)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendRowJSON: %.0f allocations per %d rows, want 0", allocs, f.NumRows())
		}
	}
}

// TestRowAtBytesPerRow: unboxing a six-column row costs one map of six
// 48-byte values, which fits the 576-byte map group size class, about
// 624 B/row. With a 64-byte value.Value it took the 704-byte class, about
// 752 B/row.
func TestRowAtBytesPerRow(t *testing.T) {
	const n = 10_000
	ints := make([]value.Value, n)
	names := make([]value.Value, n)
	spans := make([]value.Value, n)
	mixed := make([]value.Value, n)
	times := make([]int64, n)
	flts := make([]float64, n)
	for i := range n {
		ints[i] = value.Int(int64(i))
		names[i] = value.Str("node-" + strconv.Itoa(i%64))
		spans[i] = value.Span(int64(i), int64(i)+5)
		mixed[i] = value.Int(int64(i))
		if i%2 == 0 {
			mixed[i] = value.Str("x")
		}
		times[i] = int64(i) * 1_000_000_000
		flts[i] = float64(i) / 4
	}
	f := New(
		TimeColumn("time", times),
		ColumnOf("node", names),
		FloatColumn("cpu", flts),
		ColumnOf("count", ints),
		ColumnOf("span", spans),
		ColumnOf("mixed", mixed),
	)
	rows := make([]value.Row, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rows {
		rows[i] = f.RowAt(i)
	}
	runtime.ReadMemStats(&after)
	if len(rows[n-1]) != 6 {
		t.Fatalf("RowAt returned %d columns, want 6", len(rows[n-1]))
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 640 {
		t.Errorf("RowAt: %d B/row over %d rows of 6 columns, want at most 640", per, n)
	}
}

// TestMergeCoalesceAllocsFlat: Merge shares one builder across every
// coalesced column, so doubling the coalesced columns from 4 to 8 adds at
// most 4 allocations (the finished columns' own storage), not a builder
// per column.
func TestMergeCoalesceAllocsFlat(t *testing.T) {
	count := func(cols int) float64 {
		fa, fb := coalesceFrames(512, cols)
		return testing.AllocsPerRun(20, func() { Merge(fa, fb) })
	}
	a4, a8 := count(4), count(8)
	if a8-a4 > 4 {
		t.Errorf("Merge: %.0f allocations with 4 coalesced columns, %.0f with 8; want at most 4 more", a4, a8)
	}
}

// coalesceFrames builds two n-row frames over the same cols float columns:
// a's are fully present, b's half present, so Merge must coalesce every
// column cell-wise.
func coalesceFrames(n, cols int) (*Frame, *Frame) {
	acols := make([]Column, 0, cols)
	bcols := make([]Column, 0, cols)
	for j := 0; j < cols; j++ {
		name := "c" + strconv.Itoa(j)
		full := make([]float64, n)
		for i := range full {
			full[i] = float64(i * (j + 1))
		}
		acols = append(acols, FloatColumn(name, full))
		bb := NewBuilder(name, n)
		for i := 0; i < n; i += 2 {
			bb.Set(i, value.Float(float64(i)-0.5))
		}
		bcols = append(bcols, bb.Finish())
	}
	return New(acols...), New(bcols...)
}

func BenchmarkMergeCoalesce(b *testing.B) {
	const n = 512
	fa, fb := coalesceFrames(n, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Merge(fa, fb).NumRows() != n {
			b.Fatal("bad merge")
		}
	}
}

// TestConvertAllocsPerColumn: Convert resolves the unit conversion once per
// call, so a column of any length costs the output slice plus the one
// resolved converter — nothing per value.
func TestConvertAllocsPerColumn(t *testing.T) {
	d := units.Default()
	count := func(n int) float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := Convert(d, vals, "degrees_celsius", "kelvin"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a1k := count(1), count(1000); a1k != a1 || a1k > 2 {
		t.Errorf("Convert: %.0f allocations over 1 value, %.0f over 1000; want the same, at most 2 (output + converter)", a1, a1k)
	}
}
