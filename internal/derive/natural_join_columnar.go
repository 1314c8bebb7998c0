package derive

import (
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// joinColumnar is the vectorized natural join. Both sides' batches are
// hash-exchanged on their join columns' hash vectors, then each aligned
// partition pair is joined batch-wise: left rows are grouped by verified
// key (first-seen order, mirroring the row path's co-group), right rows
// probe those groups, and the matching row pairs are materialized with two
// column-wise gathers and a frame merge — no per-row maps, no per-row key
// strings.
func joinColumnar(left, right *dataset.Dataset, schema semantics.Schema, name string,
	leftCols, rightCols, dropRight []string, convs []func(value.Value) value.Value) *dataset.Dataset {

	lparts := left.Frames().NumPartitions()
	rparts := right.Frames().NumPartitions()
	numOut := lparts
	if rparts > numOut {
		numOut = rparts
	}
	// The exchanges are named after the input lineages, like the row path's
	// co-group, so traced stages count each input's rows under its own name.
	lex := hashExchange(left.Frames(), leftCols, nil, numOut, left.Frames().Name()+"|cogroup-left")
	rex := hashExchange(right.Frames(), rightCols, convs, numOut, right.Frames().Name()+"|cogroup-right")

	frames := rdd.ZipPartitions(lex, rex, func(_ int, ls, rs []keyedFrame) []*frame.Frame {
		lf, lh := concatKeyed(ls)
		rf, rh := concatKeyed(rs)
		if lf.NumRows() == 0 || rf.NumRows() == 0 {
			return framesOf(frame.Empty())
		}
		lIdx := colIndexes(lf, leftCols)
		rIdx := colIndexes(rf, rightCols)

		// Group left rows by join key in first-seen order. Buckets hold
		// group ids; a bucket with several ids means a hash collision,
		// disambiguated by ValuesEqualOn against each group's first row.
		type group struct {
			lrows []int32
			rrows []int32
		}
		var groups []group
		buckets := make(map[uint64][]int32, lf.NumRows())
		for i := 0; i < lf.NumRows(); i++ {
			gid := int32(-1)
			for _, g := range buckets[lh[i]] {
				if frame.ValuesEqualOn(lf, i, lIdx, lf, int(groups[g].lrows[0]), lIdx, nil) {
					gid = g
					break
				}
			}
			if gid < 0 {
				gid = int32(len(groups))
				groups = append(groups, group{})
				buckets[lh[i]] = append(buckets[lh[i]], gid)
			}
			groups[gid].lrows = append(groups[gid].lrows, int32(i))
		}
		// Probe with right rows; convs rescales right units before the
		// comparison, exactly as the row path keys do.
		for j := 0; j < rf.NumRows(); j++ {
			for _, g := range buckets[rh[j]] {
				if frame.ValuesEqualOn(lf, int(groups[g].lrows[0]), lIdx, rf, j, rIdx, convs) {
					groups[g].rrows = append(groups[g].rrows, int32(j))
					break
				}
			}
		}
		// Emit matched pairs group-major (the row path's co-group order):
		// every left row of a key crossed with every right row of the key.
		var n int
		for _, g := range groups {
			n += len(g.lrows) * len(g.rrows)
		}
		lsel := make([]int32, 0, n)
		rsel := make([]int32, 0, n)
		for _, g := range groups {
			if len(g.rrows) == 0 {
				continue
			}
			for _, l := range g.lrows {
				for _, r := range g.rrows {
					lsel = append(lsel, l)
					rsel = append(rsel, r)
				}
			}
		}
		return framesOf(mergePairs(lf, lsel, rf, rsel, dropRight))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}
