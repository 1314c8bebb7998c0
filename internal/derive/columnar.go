package derive

import (
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/value"
)

// Shared plumbing for the vectorized kernels. The columnar operators key
// batches on per-column hash vectors (frame.HashOn) instead of per-row key
// strings: one pass per key column over a dense vector replaces a
// strings.Builder round trip per row. Hashes route rows between
// partitions and bucket them inside one; every hash match is verified with
// frame.ValuesEqualOn before it influences a result, so collisions cannot
// change answers.

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

// matchRepr keeps a derivation representation-preserving: operators
// without a vectorized kernel compute on the row path, and when the input
// was columnar the output is re-boxed into batches so the rest of the
// plan (joins in particular) stays on the columnar path.
func matchRepr(in, out *dataset.Dataset) *dataset.Dataset {
	if in.IsColumnar() {
		return out.Columnar()
	}
	return out
}
