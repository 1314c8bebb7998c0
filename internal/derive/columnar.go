package derive

import (
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
// its rows' composite key hashes. A routed batch is a selection of its
// source batch: sel lists the rows of f (and entries of h) it carries, in
// order, so routing copies no cells; nil sel carries every row. The one
// copy happens where the destination concatenates (concatKeyed) or, across
// processes, where the wire encodes.
type keyedFrame struct {
	f   *frame.Frame
	h   []uint64
	sel []int32
}

// NumRows makes traced exchange stages count the batch's rows.
func (kf keyedFrame) NumRows() int {
	if kf.sel != nil {
		return len(kf.sel)
	}
	return kf.f.NumRows()
}

// hashExchange computes each row's composite key hash over cols (convs
// converts values before hashing, as the join does for right-side units)
// and redistributes batch slices so equal hashes land in one of numOut
// partitions. Batches arrive at each destination in source-partition
// order, matching the row-level shuffle's ordering contract.
func hashExchange(frames *rdd.RDD[*frame.Frame], cols []string, convs []func(value.Value) value.Value, numOut int, stage string) *rdd.RDD[keyedFrame] {
	var route func(kf keyedFrame, idx [][]int32)
	if numOut > 1 {
		route = func(kf keyedFrame, idx [][]int32) {
			// A count pass sizes every destination's index vector exactly.
			counts := make([]int, numOut)
			for _, h := range kf.h {
				counts[destOf(h, numOut)]++
			}
			for d, c := range counts {
				idx[d] = make([]int32, 0, c)
			}
			for i, h := range kf.h {
				d := destOf(h, numOut)
				idx[d] = append(idx[d], int32(i))
			}
		}
	}
	return routeExchange(frames, cols, convs, numOut, stage, route)
}

// destOf is the partition among numOut that a routing hash goes to,
// h mod numOut. A power-of-two count takes a mask instead of the division,
// which is a measurable share of routing: every route computes it twice,
// once to count and once to fill.
func destOf(h uint64, numOut int) int {
	if numOut&(numOut-1) == 0 {
		return int(h & uint64(numOut-1))
	}
	return int(h % uint64(numOut))
}

// routeExchange keys every batch like hashExchange, then moves its rows:
// route appends, per destination, the indexes of the rows a batch sends
// there — none, one or several per row — and each destination receives
// them as one selection of the batch, in row order. A nil route keeps
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
				if len(ix) > 0 {
					out[d] = append(out[d], keyedFrame{f: kf.f, h: kf.h, sel: ix})
				}
			}
		}
		return out
	})
}

// gathered materializes a routed batch's selection: its frame and hashes
// hold exactly the carried rows.
func (kf keyedFrame) gathered() (*frame.Frame, []uint64) {
	if kf.sel == nil {
		return kf.f, kf.h
	}
	return kf.f.Gather(kf.sel), gatherHashes(make([]uint64, 0, len(kf.sel)), kf.h, kf.sel)
}

// gatherHashes appends h's entries at sel (all of h when sel is nil).
func gatherHashes(dst, h []uint64, sel []int32) []uint64 {
	if sel == nil {
		return append(dst, h...)
	}
	for _, s := range sel {
		dst = append(dst, h[s])
	}
	return dst
}

// concatKeyed flattens one partition's batches into a single frame and
// hash vector, copying each carried row once.
func concatKeyed(kfs []keyedFrame) (*frame.Frame, []uint64) {
	if len(kfs) == 1 {
		return kfs[0].gathered()
	}
	fs := make([]*frame.Frame, len(kfs))
	sels := make([][]int32, len(kfs))
	n := 0
	for i, kf := range kfs {
		fs[i], sels[i] = kf.f, kf.sel
		n += kf.NumRows()
	}
	h := make([]uint64, 0, n)
	for _, kf := range kfs {
		h = gatherHashes(h, kf.h, kf.sel)
	}
	return frame.ConcatGather(fs, sels), h
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

// byGroup lists the rows of a group-id vector by group (a counting sort):
// gid[i] is row i's group in [0, groups), or negative for a row in none.
// The fill runs backwards with start as its cursor — start[g] counts down
// from group g's end to its start — so no second cursor vector is needed
// and each group's rows still come out in batch order.
func byGroup(gid []int32, groups int) rowGroups {
	start := make([]int32, groups+1)
	for _, g := range gid {
		if g >= 0 {
			start[g]++
		}
	}
	for g := 1; g <= groups; g++ {
		start[g] += start[g-1]
	}
	rows := make([]int32, start[groups])
	for i := len(gid) - 1; i >= 0; i-- {
		if g := gid[i]; g >= 0 {
			start[g]--
			rows[start[g]] = int32(i)
		}
	}
	return rowGroups{rows: rows, start: start}
}

// keyIndex is the hash table under every keyed kernel — the group kernel,
// the natural join and the interpolation join's exact-key grouping. It
// groups a batch's rows by their values on the key columns, groups
// numbered in first-seen order, and finds the group of any other row. The
// table is flat: head maps a slot (the top bits of a multiplicative mix of
// the key hash) to its newest group, next chains the older groups sharing
// the slot, and first holds each group's first row. A chain walk compares
// full 64-bit hashes before ValuesEqualOn verifies the key, so neither a
// slot collision nor a hash collision can merge two keys.
type keyIndex struct {
	f     *frame.Frame
	cols  []int
	h     []uint64
	shift uint
	head  []int32 // slot -> newest group, -1 when empty
	next  []int32 // group -> older group in its slot, -1 ends the chain
	first []int32 // group -> its first row
	gid   []int32 // row -> group
}

// newKeyIndex groups f's rows on cols; h holds the rows' hashes on cols.
// The table's size follows from the row count: at least two slots per row.
func newKeyIndex(f *frame.Frame, h []uint64, cols []string) *keyIndex {
	n := f.NumRows()
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	ix := &keyIndex{
		f: f, cols: colIndexes(f, cols), h: h, shift: 64 - bits,
		head:  make([]int32, 1<<bits),
		next:  make([]int32, 0, n),
		first: make([]int32, 0, n),
		gid:   make([]int32, n),
	}
	for s := range ix.head {
		ix.head[s] = -1
	}
	for i := 0; i < n; i++ {
		g := ix.find(f, i, ix.cols, h[i], nil)
		if g < 0 {
			g = int32(len(ix.first))
			s := ix.slot(h[i])
			ix.first = append(ix.first, int32(i))
			ix.next = append(ix.next, ix.head[s])
			ix.head[s] = g
		}
		ix.gid[i] = g
	}
	return ix
}

// slot spreads every bit of a key hash into the table's top bits
// (Fibonacci hashing), so keys differing only in high hash bits — integer
// or time keys — still fill the table.
func (ix *keyIndex) slot(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> ix.shift }

// len is the number of groups.
func (ix *keyIndex) len() int { return len(ix.first) }

// find returns the group whose key equals row j of pf on pcols (hash ph;
// convs converts pf's values first, as ValuesEqualOn does), or -1.
func (ix *keyIndex) find(pf *frame.Frame, j int, pcols []int, ph uint64, convs []func(value.Value) value.Value) int32 {
	for g := ix.head[ix.slot(ph)]; g >= 0; g = ix.next[g] {
		r := int(ix.first[g])
		if ix.h[r] == ph && frame.ValuesEqualOn(ix.f, r, ix.cols, pf, j, pcols, convs) {
			return g
		}
	}
	return -1
}

// groupRows groups f's rows by their values on cols; h holds the rows'
// hashes on cols.
func groupRows(f *frame.Frame, h []uint64, cols []string) rowGroups {
	ix := newKeyIndex(f, h, cols)
	return byGroup(ix.gid, ix.len())
}

// floatCells reads column c's cells as value.Value.AsFloat coerces them:
// typed int and float vectors directly, any other storage boxed per cell.
// A nil column reads every cell as absent.
func floatCells(c *frame.Column) func(i int) (float64, bool) {
	switch {
	case c == nil:
		return func(int) (float64, bool) { return 0, false }
	case c.Kind() == value.KindFloat:
		return func(i int) (float64, bool) { return c.FloatAt(i), c.Present(i) }
	case c.Kind() == value.KindInt:
		return func(i int) (float64, bool) { return float64(c.IntAt(i)), c.Present(i) }
	default:
		return func(i int) (float64, bool) { return c.Value(i).AsFloat() }
	}
}
