package derive

import (
	"fmt"
	"math/rand"
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// The kernels count, then fill: every output vector is allocated once, at
// its final size (or at a bound of it), so a kernel's allocations depend on
// its partitions and columns, not on its rows. A vector grown by append
// instead reallocates O(log n) times, which these tests see as more
// allocations at 16k rows than at 1k. Each input is columnar and cached, so
// the warm-up run AllocsPerRun makes pivots it outside the count.

// kernelAllocsFlat fails unless the derivation setup builds over inputs
// of 16k rows allocates at most slack more times than over 1k rows. setup
// returns the derivation's application and the row count its output must
// have.
func kernelAllocsFlat(t *testing.T, name string, slack float64, setup func(n int) (func() (*dataset.Dataset, error), int64)) {
	t.Helper()
	count := func(n int) float64 {
		apply, want := setup(n)
		return testing.AllocsPerRun(5, func() {
			out, err := apply()
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Count(); got != want {
				t.Fatalf("%s over %d rows emitted %d rows, want %d", name, n, got, want)
			}
		})
	}
	a1k, a16k := count(1<<10), count(1<<14)
	if a16k-a1k > slack {
		t.Errorf("%s: %.0f allocations over 1k rows, %.0f over 16k; want at most %.0f more", name, a1k, a16k, slack)
	}
}

// TestInterpJoinAllocsFlat: the interpolation join over 8 nodes whose right
// rows fall into 3 residual classes (locations) per node, so each left row
// brackets in every class of its group and the output holds 3 rows per
// left row — past the left row count, where the probe's vectors used to
// grow. The right rows arrive shuffled, so the probe radix-sorts its
// classes by time.
func TestInterpJoinAllocsFlat(t *testing.T) {
	dict := semantics.DefaultDictionary()
	ls, rs := interpTestSchemas()
	locs := []string{"top", "middle", "bottom"}
	kernelAllocsFlat(t, "interpolation_join", 4, func(n int) (func() (*dataset.Dataset, error), int64) {
		lrows, rrows := make([]value.Row, n), make([]value.Row, n)
		for i := range lrows {
			node := fmt.Sprintf("n%d", i%8)
			lrows[i] = lrow(node, sec(float64(i/8)), float64(i%100)/100)
			// Right row i is node i%8's sample in location (i/8)%3, half a
			// second after a left instant.
			r := rrow(node, sec(float64(i/24)*3+0.5), value.Float(float64(300+i%7)), "ok")
			r["loc"] = value.Str(locs[(i/8)%3])
			rrows[i] = r
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(n, func(i, j int) { rrows[i], rrows[j] = rrows[j], rrows[i] })
		ctx := rdd.NewContext(2)
		left := dataset.FromRowsColumnar(ctx, "l", lrows, ls, 2)
		right := dataset.FromRowsColumnar(ctx, "r", rrows, rs, 2)
		ij := &InterpolationJoin{WindowSeconds: 4}
		return func() (*dataset.Dataset, error) { return ij.Apply(left, right, dict) }, int64(3 * n)
	})
}

// TestExplodeAllocsFlat: both explodes emit several rows per input row
// into vectors sized by a count pass.
func TestExplodeAllocsFlat(t *testing.T) {
	dict := semantics.DefaultDictionary()
	jobs := func(n int) *dataset.Dataset {
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.NewRow(
				"job_id", value.Str(fmt.Sprintf("j%d", i)),
				"job_name", value.Str("AMG"),
				"elapsed", value.Float(120),
				"nodelist", value.StrList("n1", "n2", fmt.Sprintf("n%d", i%16)),
				"timespan", value.Span(int64(i)*60e9, int64(i)*60e9+180e9),
			)
		}
		return dataset.FromRowsColumnar(rdd.NewContext(2), "jobs", rows, jobSchema(), 2)
	}
	kernelAllocsFlat(t, "explode_discrete", 4, func(n int) (func() (*dataset.Dataset, error), int64) {
		in, ex := jobs(n), &ExplodeDiscrete{Column: "nodelist"}
		return func() (*dataset.Dataset, error) { return ex.Apply(in, dict) }, int64(3 * n)
	})
	kernelAllocsFlat(t, "explode_continuous", 4, func(n int) (func() (*dataset.Dataset, error), int64) {
		in, ex := jobs(n), &ExplodeContinuous{Column: "timespan", PeriodSeconds: 60}
		return func() (*dataset.Dataset, error) { return ex.Apply(in, dict) }, int64(3 * n)
	})
}

// TestDeriveRateAllocsFlat: 16 CPUs' counters, every sample after a CPU's
// first yielding one rate row (some of them a counter reset).
func TestDeriveRateAllocsFlat(t *testing.T) {
	dict := semantics.DefaultDictionary()
	kernelAllocsFlat(t, "derive_rate", 4, func(n int) (func() (*dataset.Dataset, error), int64) {
		rows := make([]value.Row, n)
		for i := range rows {
			step := int64(i / 16)
			rows[i] = value.NewRow(
				"time", value.TimeNanos(step*1e9),
				"cpu_id", value.Str(fmt.Sprintf("c%d", i%16)),
				"instructions", value.Int(step%50*1000), // resets every 50 samples
				"aperf", value.Float(float64(step)*1.5),
			)
		}
		in, dr := dataset.FromRowsColumnar(rdd.NewContext(2), "ctr", rows, counterSchema(), 2), &DeriveRate{}
		return func() (*dataset.Dataset, error) { return dr.Apply(in, dict) }, int64(n - 16)
	})
}
