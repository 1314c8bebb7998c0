package derive

import (
	"slices"

	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/value"
)

// Shared plumbing for the vectorized kernels. Every shipped derivation
// runs on frames: given columnar input it computes columnar output without
// unboxing a row, so value.Row appears only where a caller collects or
// shows a result, and every element a plan exchanges is a keyedFrame. The
// row-path implementations remain only as the reference the kernels are
// tested against. The columnar operators key batches on per-column hash
// vectors (frame.HashOn) instead of per-row key strings: one pass per key
// column over a dense vector replaces a strings.Builder round trip per
// row. Hashes route rows between partitions and bucket them inside one;
// every hash match is verified with frame.ValuesEqualOn before it
// influences a result, so collisions cannot change answers.

// keyedFrame is a batch traveling through a hash exchange together with
// its rows' composite key hashes.
type keyedFrame struct {
	f *frame.Frame
	h []uint64
}

// NumRows makes traced exchange stages count the batch's rows.
func (kf keyedFrame) NumRows() int { return kf.f.NumRows() }

// hashExchange computes each row's composite key hash over cols (convs
// converts values before hashing, as the join does for right-side units)
// and redistributes batch slices so equal hashes land in one of numOut
// partitions. Batches arrive at each destination in source-partition
// order, matching the row-level shuffle's ordering contract.
func hashExchange(frames *rdd.RDD[*frame.Frame], cols []string, convs []func(value.Value) value.Value, numOut int, stage string) *rdd.RDD[keyedFrame] {
	var route func(kf keyedFrame, idx [][]int32)
	if numOut > 1 {
		route = func(kf keyedFrame, idx [][]int32) {
			for i, h := range kf.h {
				d := int(h % uint64(numOut))
				idx[d] = append(idx[d], int32(i))
			}
		}
	}
	return routeExchange(frames, cols, convs, numOut, stage, route)
}

// routeExchange keys every batch like hashExchange, then moves its rows:
// route appends, per destination, the indexes of the rows a batch sends
// there — none, one or several per row — and each destination receives
// them as one gathered slice of the batch, in row order. A nil route keeps
// every batch whole in partition 0 (numOut must then be 1).
func routeExchange(frames *rdd.RDD[*frame.Frame], cols []string, convs []func(value.Value) value.Value, numOut int, stage string, route func(kf keyedFrame, idx [][]int32)) *rdd.RDD[keyedFrame] {
	keyed := rdd.WithWire(rdd.Map(frames, func(f *frame.Frame) keyedFrame {
		return keyedFrame{f: f, h: f.HashOn(cols, convs)}
	}), keyedFrameWire)
	return rdd.ExchangePartitions(keyed, numOut, stage, func(_ int, in []keyedFrame) [][]keyedFrame {
		out := make([][]keyedFrame, numOut)
		if route == nil {
			out[0] = in
			return out
		}
		for _, kf := range in {
			idx := make([][]int32, numOut)
			route(kf, idx)
			for d, ix := range idx {
				if len(ix) == 0 {
					continue
				}
				hh := make([]uint64, len(ix))
				for k, s := range ix {
					hh[k] = kf.h[s]
				}
				out[d] = append(out[d], keyedFrame{f: kf.f.Gather(ix), h: hh})
			}
		}
		return out
	})
}

// concatKeyed flattens one partition's batches into a single frame and
// hash vector.
func concatKeyed(kfs []keyedFrame) (*frame.Frame, []uint64) {
	if len(kfs) == 1 {
		return kfs[0].f, kfs[0].h
	}
	fs := make([]*frame.Frame, len(kfs))
	n := 0
	for i, kf := range kfs {
		fs[i] = kf.f
		n += kf.f.NumRows()
	}
	h := make([]uint64, 0, n)
	for _, kf := range kfs {
		h = append(h, kf.h...)
	}
	return frame.Concat(fs), h
}

// mergePairs materializes matched row pairs: row lsel[k] of lf beside row
// rsel[k] of rf minus the drop columns, right cells winning wherever the
// right row has them (value.Row.Merge).
func mergePairs(lf *frame.Frame, lsel []int32, rf *frame.Frame, rsel []int32, drop []string) *frame.Frame {
	return frame.Merge(lf.Gather(lsel), rf.Drop(drop...).Gather(rsel))
}

// colIndexes resolves column names to positions in f (-1 when absent, read
// as Null by the verifier — the same view value.Row.Get gives the row
// path).
func colIndexes(f *frame.Frame, cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = f.ColIndex(c)
	}
	return idx
}

// framesOf converts a partition's worth of kernel output back into a
// one-element batch slice, the shape columnar rdd partitions carry.
func framesOf(f *frame.Frame) []*frame.Frame { return []*frame.Frame{f} }

// rowGroups lists a batch's rows by group: group g is
// rows[start[g]:start[g+1]], groups in first-seen order and each group's
// rows in batch order — the order GroupByKey gives the row path.
type rowGroups struct {
	rows, start []int32
}

func (g rowGroups) len() int { return len(g.start) - 1 }

func (g rowGroups) at(k int) []int32 { return g.rows[g.start[k]:g.start[k+1]] }

// groupRows groups f's rows by their values on cols; h holds the rows'
// hashes on cols. A hash maps to its newest group and chain links the
// older groups sharing it, each told apart by ValuesEqualOn against the
// group's first row.
func groupRows(f *frame.Frame, h []uint64, cols []string) rowGroups {
	idx := colIndexes(f, cols)
	n := f.NumRows()
	gid := make([]int32, n)
	var first, chain []int32
	head := make(map[uint64]int32, n)
	for i := 0; i < n; i++ {
		g, seen := head[h[i]]
		if !seen {
			g = -1
		}
		for g >= 0 && !frame.ValuesEqualOn(f, i, idx, f, int(first[g]), idx, nil) {
			g = chain[g]
		}
		if g < 0 {
			g = int32(len(first))
			first = append(first, int32(i))
			if seen {
				chain = append(chain, head[h[i]])
			} else {
				chain = append(chain, -1)
			}
			head[h[i]] = g
		}
		gid[i] = g
	}
	start := make([]int32, len(first)+1)
	for _, g := range gid {
		start[g+1]++
	}
	for g := range first {
		start[g+1] += start[g]
	}
	rows, next := make([]int32, n), slices.Clone(start)
	for i, g := range gid {
		rows[next[g]] = int32(i)
		next[g]++
	}
	return rowGroups{rows: rows, start: start}
}

// floatCells reads column c's cells as value.Value.AsFloat coerces them:
// typed int and float vectors directly, any other storage boxed per cell.
// A nil column reads every cell as absent.
func floatCells(c *frame.Column) func(i int) (float64, bool) {
	switch {
	case c == nil:
		return func(int) (float64, bool) { return 0, false }
	case c.Kind() == value.KindFloat:
		flts := c.Floats()
		return func(i int) (float64, bool) { return flts[i], c.Present(i) }
	case c.Kind() == value.KindInt:
		ints := c.Ints()
		return func(i int) (float64, bool) { return float64(ints[i]), c.Present(i) }
	default:
		return func(i int) (float64, bool) { return c.Value(i).AsFloat() }
	}
}
