package derive

import (
	"sort"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
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

	// Named after the input lineage, like the row path's groupByKey, so the
	// traced exchange counts input rows under the input's name.
	ex := hashExchange(in.Frames(), groupCols, nil, in.Frames().NumPartitions(), in.Frames().Name()+"|groupByKey")
	frames := rdd.MapPartitions(ex, func(_ int, kfs []keyedFrame) []*frame.Frame {
		f, h := concatKeyed(kfs)
		if f.NumRows() == 0 {
			return framesOf(frame.Empty())
		}
		gIdx := colIndexes(f, groupCols)

		// Group rows by counter identity in first-seen order; buckets hold
		// group ids per hash, disambiguated by value equality.
		var groups [][]int32
		buckets := make(map[uint64][]int32, f.NumRows())
		for i := 0; i < f.NumRows(); i++ {
			gid := int32(-1)
			for _, g := range buckets[h[i]] {
				if frame.ValuesEqualOn(f, i, gIdx, f, int(groups[g][0]), gIdx, nil) {
					gid = g
					break
				}
			}
			if gid < 0 {
				gid = int32(len(groups))
				groups = append(groups, nil)
				buckets[h[i]] = append(buckets[h[i]], gid)
			}
			groups[gid] = append(groups[gid], int32(i))
		}

		tc := f.Col(timeCol)
		typedTime := tc != nil && tc.Kind() == value.KindTime
		var tInts []int64
		if typedTime {
			tInts = tc.Ints()
		}
		timeNanos := func(i int32) int64 {
			if typedTime && tc.Present(int(i)) {
				return tInts[i]
			}
			if tc == nil {
				return 0
			}
			return tc.Value(int(i)).TimeNanosVal()
		}
		timeLess := func(a, b int32) bool {
			if typedTime && tc.Present(int(a)) && tc.Present(int(b)) {
				return tInts[a] < tInts[b]
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
		for _, g := range groups {
			idx := make([]int32, len(g))
			copy(idx, g)
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
			cc := f.Col(c)
			getF := func(i int32) (float64, bool) {
				if cc == nil {
					return 0, false
				}
				return cc.Value(int(i)).AsFloat()
			}
			if cc != nil {
				switch cc.Kind() {
				case value.KindInt:
					ints := cc.Ints()
					getF = func(i int32) (float64, bool) {
						if !cc.Present(int(i)) {
							return 0, false
						}
						return float64(ints[i]), true
					}
				case value.KindFloat:
					flts := cc.Floats()
					getF = func(i int32) (float64, bool) {
						if !cc.Present(int(i)) {
							return 0, false
						}
						return flts[i], true
					}
				}
			}
			if bld == nil {
				bld = frame.NewBuilder(RateColumn(c), len(sel))
			} else {
				// Reset only reallocates past the high-water mark.
				bld.Reset(RateColumn(c), len(sel))
			}
			b := bld
			for k := range sel {
				pv, pok := getF(prevSel[k])
				cv, cok := getF(sel[k])
				if !pok || !cok || cv < pv {
					// Missing sample or counter reset: no valid rate.
					continue
				}
				b.Set(k, value.Float((cv-pv)/dts[k]))
			}
			out = out.With(b.Finish())
		}
		return framesOf(out)
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}
