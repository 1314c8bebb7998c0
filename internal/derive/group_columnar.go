package derive

import (
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// The group kernel under derive_heat and aggregate. Batches hash-exchange
// on the group columns, named like the row path's groupByKey stage so
// traced exchanges count input rows under the input's lineage; a keyIndex
// over each partition's pieces groups its rows in first-seen order, and
// the derivation's emit folds every group into at most one output row: one
// Gather of the groups' representative rows plus the aggregate columns.
// emit reads its rows at random by row number, so the pieces are copied
// once, in arrival order, into the frame it reads.
// Groups are kind-strict (value.Value.Equal), as in the rate and join
// kernels; the row path keys groups by rendered text, so the two part only
// when one group column holds values of different kinds that render alike
// (Int(1) beside Str("1"), or an absent cell beside Str("")).

// groupColumnar runs emit over every partition's groups.
func groupColumnar(in *dataset.Dataset, schema semantics.Schema, name string, groupCols []string,
	emit func(f *frame.Frame, gs rowGroups) *frame.Frame) *dataset.Dataset {

	src := in.Frames()
	ex := hashExchange(src, groupCols, nil, src.NumPartitions(), src.Name()+"|groupByKey")
	frames := rdd.MapPartitions(ex, func(_ int, kfs []keyedFrame) []*frame.Frame {
		if numRows(kfs) == 0 {
			return framesOf(frame.Empty())
		}
		ix := newKeyIndex(kfs, groupCols)
		return framesOf(emit(gatherPieces(kfs, nil), byGroup(ix.gid, ix.len())))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}

// heatColumnar is derive_heat's kernel: per group, the mean kelvin
// temperature of the hot-aisle rows minus that of the cold-aisle rows,
// summed in row order; the first hot row with a temperature represents the
// group. toKelvin is nil when the temperature units do not convert, and
// then no row has a temperature.
func heatColumnar(in *dataset.Dataset, schema semantics.Schema, name string, groupCols []string,
	aisleCol, tempCol, outCol string, toKelvin func(float64) float64) *dataset.Dataset {

	return groupColumnar(in, schema, name, groupCols, func(f *frame.Frame, gs rowGroups) *frame.Frame {
		temp := floatCells(f.Col(tempCol))
		ac := f.Col(aisleCol)
		aisle := func(i int32) string {
			switch {
			case ac == nil || !ac.Present(int(i)):
				return ""
			case ac.Kind() == value.KindString:
				return ac.StrAt(int(i))
			default:
				return ac.Value(int(i)).StrVal()
			}
		}
		var reps []int32
		var heat []float64
		for k := 0; k < gs.len(); k++ {
			var hotSum, coldSum float64
			var hotN, coldN int
			rep := int32(-1)
			for _, i := range gs.at(k) {
				t, ok := temp(int(i))
				if !ok || toKelvin == nil {
					continue
				}
				switch aisle(i) {
				case AisleHot:
					hotSum += toKelvin(t)
					hotN++
					if rep < 0 {
						rep = i
					}
				case AisleCold:
					coldSum += toKelvin(t)
					coldN++
				}
			}
			if hotN == 0 || coldN == 0 {
				continue
			}
			reps = append(reps, rep)
			heat = append(heat, hotSum/float64(hotN)-coldSum/float64(coldN))
		}
		return f.Drop(aisleCol, tempCol).Gather(reps).With(frame.FloatColumn(outCol, heat))
	})
}

// aggregateColumnar is aggregate's kernel: each group's first row
// contributes the group columns, and every op one column built cell by
// cell (aggregateCell).
func aggregateColumnar(in *dataset.Dataset, schema semantics.Schema, name string, groupBy []string, ops []aggOp) *dataset.Dataset {
	return groupColumnar(in, schema, name, groupBy, func(f *frame.Frame, gs rowGroups) *frame.Frame {
		reps := make([]int32, gs.len())
		for k := range reps {
			reps[k] = gs.at(k)[0]
		}
		out := f.Select(groupBy).Gather(reps)
		var bld *frame.Builder // one scratch, Reset-reused across op columns
		for _, o := range ops {
			outCol := o.col + "_" + o.op
			if bld == nil {
				bld = frame.NewBuilder(outCol, len(reps))
			} else {
				bld.Reset(outCol, len(reps))
			}
			c := f.Col(o.col)
			for k := range reps {
				if v, ok := aggregateCell(c, gs.at(k), o.op); ok {
					bld.Set(k, v)
				}
			}
			out = out.With(bld.Finish())
		}
		return out
	})
}

// aggregateCell computes one group's aggregate over column c (nil: the
// batch lacks it), as the row path does over the group's non-null cells:
// count is their Int number; mean is value.Mean, an explicit null when
// none is numeric; sum adds the numeric ones as floats and is absent
// without any; min and max keep the first Compare-extreme cell and are
// absent for an empty group. Typed int and float columns accumulate
// unboxed; every other storage boxes its cells.
func aggregateCell(c *frame.Column, rows []int32, op string) (value.Value, bool) {
	if c != nil && (c.Kind() == value.KindFloat || c.Kind() == value.KindInt) {
		read := floatCells(c)
		n, best := 0, int32(-1)
		var sum, bestF float64
		for _, i := range rows {
			x, ok := read(int(i))
			if !ok {
				continue
			}
			n++
			sum += x
			if best < 0 || (op == "min" && x < bestF) || (op == "max" && x > bestF) {
				best, bestF = i, x
			}
		}
		switch op {
		case "count":
			return value.Int(int64(n)), true
		case "mean":
			if n == 0 {
				return value.Null(), true
			}
			return value.Float(sum / float64(n)), true
		case "sum":
			return value.Float(sum), n > 0
		default:
			if best < 0 {
				return value.Value{}, false
			}
			return c.Value(int(best)), true
		}
	}
	var vals []value.Value
	if c != nil {
		for _, i := range rows {
			if v := c.Value(int(i)); !v.IsNull() {
				vals = append(vals, v)
			}
		}
	}
	switch op {
	case "count":
		return value.Int(int64(len(vals))), true
	case "mean":
		return value.Mean(vals), true
	case "sum":
		var sum float64
		numeric := false
		for _, v := range vals {
			if x, ok := v.AsFloat(); ok {
				sum += x
				numeric = true
			}
		}
		return value.Float(sum), numeric
	default:
		var best value.Value
		for _, v := range vals {
			if best.IsNull() || (op == "min" && v.Compare(best) < 0) || (op == "max" && v.Compare(best) > 0) {
				best = v
			}
		}
		return best, !best.IsNull()
	}
}
