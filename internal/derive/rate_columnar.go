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
// into typed rate columns — one gather for the carried columns instead of
// a row clone per output sample.
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

		// Sort each group by time and pick the valid consecutive pairs: at
		// most each group's size less one, which sizes the pair vectors.
		pairs := len(groups.rows) - groups.len()
		sel, prevSel, dts := make([]int32, 0, pairs), make([]int32, 0, pairs), make([]float64, 0, pairs)
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

		// Each rate is a float column with absent cells where it has no
		// valid value; a rate with no valid cell at all is stored boxed, as
		// every column without a present cell is.
		out := f.Drop(counters...).Gather(sel)
		ok := make([]bool, len(sel)) // scratch: FloatColumnWhere does not keep it
		for _, c := range counters {
			getF := floatCells(f.Col(c))
			rates, valid := make([]float64, len(sel)), false
			for k := range sel {
				pv, pok := getF(int(prevSel[k]))
				cv, cok := getF(int(sel[k]))
				// Missing sample or counter reset: no valid rate.
				if ok[k] = pok && cok && !(cv < pv); ok[k] {
					rates[k], valid = (cv-pv)/dts[k], true
				}
			}
			if !valid {
				out = out.With(frame.AbsentColumn(RateColumn(c), len(sel)))
				continue
			}
			out = out.With(frame.FloatColumnWhere(RateColumn(c), rates, ok))
		}
		return out
	})
}
