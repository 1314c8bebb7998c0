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
// partition pair is joined batch-wise: a keyIndex groups the left rows by
// verified key (first-seen order, mirroring the row path's co-group),
// every right row finds its group, and the matching row pairs are
// materialized with two column-wise gathers and a frame merge — no per-row
// maps, no per-group slices, no per-row key strings.
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
		// Probe with right rows; convs rescales right units before the
		// comparison, exactly as the row path keys do.
		ix := newKeyIndex(lf, lh, leftCols)
		rIdx := colIndexes(rf, rightCols)
		rgid := make([]int32, rf.NumRows())
		for j := range rgid {
			rgid[j] = ix.find(rf, j, rIdx, rh[j], convs)
		}
		lg, rg := byGroup(ix.gid, ix.len()), byGroup(rgid, ix.len())
		// Emit matched pairs group-major (the row path's co-group order):
		// every left row of a key crossed with every right row of the key.
		var n int
		for g := 0; g < ix.len(); g++ {
			n += len(lg.at(g)) * len(rg.at(g))
		}
		lsel, rsel := make([]int32, 0, n), make([]int32, 0, n)
		for g := 0; g < ix.len(); g++ {
			rrows := rg.at(g)
			if len(rrows) == 0 {
				continue
			}
			for _, l := range lg.at(g) {
				for _, r := range rrows {
					lsel = append(lsel, l)
					rsel = append(rsel, r)
				}
			}
		}
		return framesOf(mergePairs(lf, lsel, rf, rsel, dropRight))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}
