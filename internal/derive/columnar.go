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
// order, so routing copies no cells; nil sel carries every row. A
// destination receives its partition as a list of such pieces and reads
// them where they lie: every keyed kernel builds its keyIndex over the
// pieces and gathers its output rows from them (gatherPieces), and across
// processes the wire encodes each selection in place.
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

// row is the row of f that the batch's t-th row is.
func (kf keyedFrame) row(t int) int {
	if kf.sel != nil {
		return int(kf.sel[t])
	}
	return t
}

// gatherPieces materializes rows idx of a partition's concatenated pieces
// (every row, in arrival order, when idx is nil), less the drop columns,
// copying each output cell once from the piece it lives in. A lone whole
// piece asked for every row is returned as it is.
func gatherPieces(kfs []keyedFrame, idx []int32, drop ...string) *frame.Frame {
	if idx == nil && len(drop) == 0 && len(kfs) == 1 && kfs[0].sel == nil {
		return kfs[0].f
	}
	fs, sels := make([]*frame.Frame, len(kfs)), make([][]int32, len(kfs))
	for i, kf := range kfs {
		fs[i], sels[i] = kf.f, kf.sel
		if len(drop) > 0 {
			fs[i] = kf.f.Drop(drop...)
		}
	}
	return frame.ConcatGather(fs, sels, idx)
}

// numRows is the number of rows a partition's pieces carry.
func numRows(kfs []keyedFrame) int {
	n := 0
	for _, kf := range kfs {
		n += kf.NumRows()
	}
	return n
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
// groups a partition's rows by their values on the key columns, groups
// numbered in first-seen order, and finds the group of any other row. The
// rows are read where they lie, in the list of pieces the exchange
// delivered; a row's number is its position in the pieces'
// concatenation. The table is flat: head maps a slot (the top bits
// of a multiplicative mix of the key hash) to its newest group, next
// chains the older groups sharing the slot, and each group keeps its first
// row's piece, row in that piece's frame and hash. A chain walk compares
// full 64-bit hashes before ValuesEqualOn verifies the key, so neither a
// slot collision nor a hash collision can merge two keys.
type keyIndex struct {
	pieces []keyedFrame
	cols   [][]int // piece -> positions of the key columns in its frame
	shift  uint
	head   []int32  // slot -> newest group, -1 when empty
	next   []int32  // group -> older group in its slot, -1 ends the chain
	fpiece []int32  // group -> the piece of its first row
	frow   []int32  // group -> its first row, in that piece's frame
	fhash  []uint64 // group -> its key hash
	gid    []int32  // row -> group
}

// newKeyIndex groups the rows of pieces on cols; each piece carries its
// rows' hashes on cols. The table's size follows from the row count: at
// least two slots per row.
func newKeyIndex(pieces []keyedFrame, cols []string) *keyIndex {
	n := numRows(pieces)
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	ix := &keyIndex{
		pieces: pieces, cols: make([][]int, len(pieces)), shift: 64 - bits,
		head:   make([]int32, 1<<bits),
		next:   make([]int32, 0, n),
		fpiece: make([]int32, 0, n),
		frow:   make([]int32, 0, n),
		fhash:  make([]uint64, 0, n),
		gid:    make([]int32, n),
	}
	for s := range ix.head {
		ix.head[s] = -1
	}
	r := 0
	for p, kf := range pieces {
		ix.cols[p] = colIndexes(kf.f, cols)
		for t := 0; t < kf.NumRows(); t++ {
			i := kf.row(t)
			h := kf.h[i]
			g := ix.find(kf.f, i, ix.cols[p], h)
			if g < 0 {
				g = int32(len(ix.fhash))
				s := ix.slot(h)
				ix.fpiece = append(ix.fpiece, int32(p))
				ix.frow = append(ix.frow, int32(i))
				ix.fhash = append(ix.fhash, h)
				ix.next = append(ix.next, ix.head[s])
				ix.head[s] = g
			}
			ix.gid[r] = g
			r++
		}
	}
	return ix
}

// slot spreads every bit of a key hash into the table's top bits
// (Fibonacci hashing), so keys differing only in high hash bits — integer
// or time keys — still fill the table.
func (ix *keyIndex) slot(h uint64) uint64 { return (h * 0x9E3779B97F4A7C15) >> ix.shift }

// len is the number of groups.
func (ix *keyIndex) len() int { return len(ix.fhash) }

// find returns the group whose key equals row j of pf on pcols (hash ph),
// or -1. The build calls it; probes go through findAll.
func (ix *keyIndex) find(pf *frame.Frame, j int, pcols []int, ph uint64) int32 {
	g := ix.candidate(ix.head[ix.slot(ph)], ph)
	for g >= 0 && !ix.keyEquals(g, pf, j, pcols, nil) {
		g = ix.candidate(ix.next[g], ph)
	}
	return g
}

// findAll returns what find returns for each row of pieces, in their
// concatenation order, keyed on cols. It runs in two passes: the
// first walks each row's chain to the first group with the row's hash,
// reading only the table; the second verifies those candidates, going on
// down a chain only past a hash collision. A verification reads a group's
// key where its first row lies, at random in the pieces the index was
// built over; in a loop of nothing but verifications several of those
// reads are in flight at once, where one interleaved with the chain walks
// waits for each.
func (ix *keyIndex) findAll(pieces []keyedFrame, cols []string, convs []func(value.Value) value.Value) []int32 {
	gid := make([]int32, 0, numRows(pieces))
	for _, kf := range pieces {
		for t := 0; t < kf.NumRows(); t++ {
			h := kf.h[kf.row(t)]
			gid = append(gid, ix.candidate(ix.head[ix.slot(h)], h))
		}
	}
	r := 0
	for _, kf := range pieces {
		pcols := colIndexes(kf.f, cols)
		for t := 0; t < kf.NumRows(); t++ {
			j, g := kf.row(t), gid[r]
			for g >= 0 && !ix.keyEquals(g, kf.f, j, pcols, convs) {
				g = ix.candidate(ix.next[g], kf.h[j])
			}
			gid[r] = g
			r++
		}
	}
	return gid
}

// candidate returns the first group with hash h on the chain from group g
// on, or -1.
func (ix *keyIndex) candidate(g int32, h uint64) int32 {
	for g >= 0 && ix.fhash[g] != h {
		g = ix.next[g]
	}
	return g
}

// keyEquals verifies that group g's key equals row j of pf on pcols.
func (ix *keyIndex) keyEquals(g int32, pf *frame.Frame, j int, pcols []int, convs []func(value.Value) value.Value) bool {
	p := ix.fpiece[g]
	return frame.ValuesEqualOn(ix.pieces[p].f, int(ix.frow[g]), ix.cols[p], pf, j, pcols, convs)
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
