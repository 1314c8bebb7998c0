package derive

import (
	"sort"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// rateColumnar is the vectorized counter-rate kernel. Batches are
// hash-exchanged on the non-time domain columns so each counter identity
// lands in one partition, rows group in first-seen order (verified, as in
// the join), each group sorts by time, and consecutive samples difference
// into rate columns built cell-by-cell — one gather for the carried
// columns instead of a row clone per output sample.
func rateColumnar(in *dataset.Dataset, schema semantics.Schema, name, timeCol string,
	counters, groupCols []string) *dataset.Dataset {

	return groupColumnar(in, schema, name, groupCols, func(f *frame.Frame, groups rowGroups) *frame.Frame {
		tc := f.Col(timeCol)
		typedTime := tc != nil && tc.Kind() == value.KindTime
		timeNanos := func(i int32) int64 {
			if typedTime && tc.Present(int(i)) {
				return tc.IntAt(int(i))
			}
			if tc == nil {
				return 0
			}
			return tc.Value(int(i)).TimeNanosVal()
		}
		timeLess := func(a, b int32) bool {
			if typedTime && tc.Present(int(a)) && tc.Present(int(b)) {
				return tc.IntAt(int(a)) < tc.IntAt(int(b))
			}
			var va, vb value.Value
			if tc != nil {
				va, vb = tc.Value(int(a)), tc.Value(int(b))
			}
			return va.Compare(vb) < 0
		}

		// Sort each group by time and pick the valid consecutive pairs.
		var sel, prevSel []int32
		var dts []float64
		for g := 0; g < groups.len(); g++ {
			idx := groups.at(g) // kernel-owned scratch: sorted in place
			sort.SliceStable(idx, func(a, b int) bool { return timeLess(idx[a], idx[b]) })
			for k := 1; k < len(idx); k++ {
				dtN := timeNanos(idx[k]) - timeNanos(idx[k-1])
				if dtN <= 0 {
					continue
				}
				sel = append(sel, idx[k])
				prevSel = append(prevSel, idx[k-1])
				dts = append(dts, float64(dtN)/1e9)
			}
		}

		out := f.Drop(counters...).Gather(sel)
		var bld *frame.Builder // one scratch, Reset-reused across counter columns
		for _, c := range counters {
			getF := floatCells(f.Col(c))
			if bld == nil {
				bld = frame.NewBuilder(RateColumn(c), len(sel))
			} else {
				// Reset only reallocates past the high-water mark.
				bld.Reset(RateColumn(c), len(sel))
			}
			b := bld
			for k := range sel {
				pv, pok := getF(int(prevSel[k]))
				cv, cok := getF(int(sel[k]))
				if !pok || !cok || cv < pv {
					// Missing sample or counter reset: no valid rate.
					continue
				}
				b.Set(k, value.Float((cv-pv)/dts[k]))
			}
			out = out.With(b.Finish())
		}
		return out
	})
}
