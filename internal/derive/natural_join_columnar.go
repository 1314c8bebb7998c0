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
// partition pair is joined where its pieces lie: a keyIndex over the left
// pieces groups the left rows by verified key (first-seen order,
// mirroring the row path's co-group), every right row finds its group
// piece by piece, and the matching row pairs are gathered straight from
// the pieces of each side (neither side is concatenated first, and the
// right key columns are never copied) and merged — no per-row maps, no
// per-group slices, no per-row key strings.
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
		if numRows(ls) == 0 || numRows(rs) == 0 {
			return framesOf(frame.Empty())
		}
		// Probe with right rows; convs rescales right units before the
		// comparison, exactly as the row path keys do.
		ix := newKeyIndex(ls, leftCols)
		rgid := ix.findAll(rs, rightCols, convs)
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
		// Matched pairs: left row lsel[k] beside right row rsel[k] less the
		// drop columns, right cells winning wherever the right row has
		// them (value.Row.Merge).
		return framesOf(frame.Merge(gatherPieces(ls, lsel), gatherPieces(rs, rsel, dropRight...)))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}
