package derive

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// interpJoinColumnar is the vectorized interpolation join (§5.3). Time is
// cut into bins 2W wide: a left row goes to its instant's bin, a right row
// to both bins its window [t−W, t+W] touches, routed on the exact-key hash
// mixed with the bin, so every in-window pair meets once, in the left row's
// bin, after one keyed-frame exchange per side. Rows without a time route
// nowhere; a right row routed twice to one partition is a harmless
// duplicate. Output order: left rows in arrival order, each left row's
// residual classes in joinKey order — the row-form reference's order, so
// at one partition the two row streams are identical.
func interpJoinColumnar(left, right *rdd.RDD[*frame.Frame], s *interpSpec, schema semantics.Schema, name string) *dataset.Dataset {
	numOut := max(left.NumPartitions(), right.NumPartitions())
	lex := routeExchange(left, s.leftExact, nil, numOut, left.Name()+"|cogroup-left", binRoute(s.ltCol, 0, 2*s.w, numOut))
	rex := routeExchange(right, s.rightExact, s.convs, numOut, right.Name()+"|cogroup-right", binRoute(s.rtCol, s.w, 2*s.w, numOut))
	frames := rdd.ZipPartitions(lex, rex, func(_ int, ls, rs []keyedFrame) []*frame.Frame {
		if numRows(ls) == 0 || numRows(rs) == 0 {
			return framesOf(frame.Empty())
		}
		return framesOf(s.probe(ls, rs))
	})
	return dataset.NewFrames(name, frames.WithName(name), schema)
}

// binRoute sends every row with an instant t in tCol to each bin of the
// given width that [t−reach, t+reach] touches. reach is 0 or width/2, so
// that is t's bin alone or, the interval being one bin wide, the bin of
// t−reach and the next one. As in hashExchange, a count pass sizes every
// destination's index vector exactly before the fill.
func binRoute(tCol string, reach, width int64, numOut int) func(kf keyedFrame, idx [][]int32) {
	return func(kf keyedFrame, idx [][]int32) {
		tc := kf.f.Col(tCol)
		counts := make([]int, numOut)
		for _, fill := range [2]bool{false, true} {
			for i, h := range kf.h {
				t, ok := instantAt(tc, i)
				if !ok {
					continue
				}
				lo := floorDiv(t-reach, width)
				hi := lo
				if reach > 0 {
					hi++
				}
				for bin := lo; bin <= hi; bin++ {
					d := destOf(binKeyMix(h, bin), numOut)
					if fill {
						idx[d] = append(idx[d], int32(i))
					} else {
						counts[d]++
					}
				}
			}
			if !fill {
				for d, c := range counts {
					idx[d] = make([]int32, 0, c)
				}
			}
		}
	}
}

// binKeyMix folds an integer (a bin index, a group id) into a key hash
// with one FNV-64 step.
func binKeyMix(h uint64, bin int64) uint64 { return (h ^ uint64(bin)) * 1099511628211 }

// instantAt reads cell i of a time column as Unix nanoseconds; ok is false
// when the column is missing, the cell absent, or its value not a time.
func instantAt(c *frame.Column, i int) (t int64, ok bool) {
	if c == nil || !c.Present(i) {
		return 0, false
	}
	if c.Kind() == value.KindTime {
		return c.IntAt(i), true
	}
	v := c.Value(i)
	return v.TimeNanosVal(), v.Kind() == value.KindTime
}

// probe joins one partition, the pieces ls and rs, every row of which
// has an instant. Both sides' rows find their exact-key groups where they
// lie; the left rows are read there, in arrival order, too, but the right
// rows are copied once into rf, in arrival order, because the brackets
// read them at random.
func (s *interpSpec) probe(ls, rs []keyedFrame) *frame.Frame {
	// Left rows group by verified exact key; right rows join a left group.
	ix := newKeyIndex(ls, s.leftExact)
	lgroup, groups := ix.gid, ix.len()
	rgroup := ix.findAll(rs, s.rightExact, s.convs)
	rf := gatherPieces(rs, nil)

	// Right rows then join a residual class: the rows whose
	// residual columns render one joinKey string. A row whose residual
	// values equal an earlier row's takes that row's class, so a key renders
	// once per distinct value, not per row. Without residual columns every
	// row of a group is in one class, which gclass (group -> class id, -1
	// before its first row) finds without hashing; ids follow first use
	// either way.
	type class struct {
		group int32
		key   string
	}
	type seen struct{ rep, class int32 }
	var classes []class
	byKey := map[class]int32{}
	byValue := map[uint64][]seen{}
	resIdx := colIndexes(rf, s.rightResidual)
	var resHash []uint64
	var gclass []int32
	if len(s.rightResidual) > 0 {
		resHash = rf.HashOn(s.rightResidual, nil)
	} else {
		gclass = make([]int32, groups)
		for g := range gclass {
			gclass[g] = -1
		}
	}
	rclass := make([]int32, rf.NumRows())
	for j := range rclass {
		rclass[j] = -1
		g := rgroup[j]
		if g < 0 {
			continue
		}
		if gclass != nil {
			if gclass[g] < 0 {
				gclass[g] = int32(len(classes))
				classes = append(classes, class{group: g})
			}
			rclass[j] = gclass[g]
			continue
		}
		vh := binKeyMix(resHash[j], int64(g))
		for _, v := range byValue[vh] {
			if classes[v.class].group == g && frame.ValuesEqualOn(rf, int(v.rep), resIdx, rf, j, resIdx, nil) {
				rclass[j] = v.class
				break
			}
		}
		if rclass[j] < 0 {
			c := class{group: g, key: frameKey(rf, j, resIdx)} // once per distinct residual value
			id, ok := byKey[c]
			if !ok {
				id = int32(len(classes))
				classes = append(classes, c)
				byKey[c] = id
			}
			rclass[j] = id
			byValue[vh] = append(byValue[vh], seen{int32(j), id})
		}
	}

	// Class c's rows, sorted by time (arrival order on ties), are
	// sorted[runs[c]:runs[c+1]] with instants st; byGroup lists the classes
	// in (group, key) order, group g's being byGroup[gFirst[g]:gFirst[g+1]].
	// The scatter fills each run in ascending row order, which sortByTime
	// keeps on ties; rclass is dead after it and serves as the sort's
	// scratch.
	rtc := rf.Col(s.rtCol)
	rts := make([]int64, rf.NumRows())
	runs := make([]int32, len(classes)+1)
	for j, c := range rclass {
		if rts[j], _ = instantAt(rtc, j); c >= 0 {
			runs[c+1]++
		}
	}
	for c := range classes {
		runs[c+1] += runs[c]
	}
	sorted, next := make([]int32, runs[len(classes)]), slices.Clone(runs)
	for j, c := range rclass {
		if c >= 0 {
			sorted[next[c]] = int32(j)
			next[c]++
		}
	}
	st := make([]int64, len(sorted))
	byGroup := make([]int32, len(classes))
	gFirst := make([]int32, groups+1)
	for c := range classes {
		sortByTime(sorted[runs[c]:runs[c+1]], rts, rclass)
		for k := runs[c]; k < runs[c+1]; k++ {
			st[k] = rts[sorted[k]]
		}
		byGroup[c] = int32(c)
		gFirst[classes[c].group+1]++
	}
	slices.SortFunc(byGroup, func(a, b int32) int {
		return cmp.Or(cmp.Compare(classes[a].group, classes[b].group), strings.Compare(classes[a].key, classes[b].key))
	})
	for g := range groups {
		gFirst[g+1] += gFirst[g]
	}

	// Per left row and class: the brackets b ≤ lt ≤ a and the nearest row
	// (b unless a is strictly closer). Lerp columns interpolate between
	// bsel and asel; where asel is -1 they copy bsel's row. A left row
	// meets each class of its group at most once, so the group's class
	// count bounds its output rows and sizes the vectors (an exact count
	// would run the bracket search twice, which costs more time than the
	// spare capacity costs bytes). The bound is capped at a few times the
	// input rows, past which the vectors grow by append: a group of many
	// classes that rarely bracket its rows would otherwise reserve far more
	// than it fills.
	bound := 0
	for _, g := range lgroup {
		bound += int(gFirst[g+1] - gFirst[g])
	}
	bound = min(bound, 4*(len(lgroup)+rf.NumRows()))
	lsel, nsel, bsel, asel := make([]int32, 0, bound), make([]int32, 0, bound), make([]int32, 0, bound), make([]int32, 0, bound)
	frac := make([]float64, 0, bound)
	i := 0 // the left row's number in the pieces' concatenation
	for _, kf := range ls {
		ltc := kf.f.Col(s.ltCol)
		for t := 0; t < kf.NumRows(); t++ {
			lt, _ := instantAt(ltc, kf.row(t))
			g := lgroup[i]
			for _, c := range byGroup[gFirst[g]:gFirst[g+1]] {
				run, ts := sorted[runs[c]:runs[c+1]], st[runs[c]:runs[c+1]]
				b, a := -1, -1
				q, _ := slices.BinarySearch(ts, lt)
				if q < len(ts) && ts[q]-lt <= s.w {
					a = q
				}
				if q < len(ts) && ts[q] == lt {
					b = q
				} else if q > 0 && lt-ts[q-1] <= s.w {
					// The before-bracket is the first row on instant ts[q-1]:
					// q-1 itself unless the row before it ties.
					b = q - 1
					if b > 0 && ts[b-1] == ts[b] {
						b, _ = slices.BinarySearch(ts[:b], ts[b])
					}
				}
				if b < 0 && a < 0 {
					continue
				}
				near := b
				if b < 0 || (a >= 0 && ts[a]-lt < lt-ts[b]) {
					near = a
				}
				lsel, nsel = append(lsel, int32(i)), append(nsel, run[near])
				switch {
				case b < 0:
					bsel, asel, frac = append(bsel, run[a]), append(asel, -1), append(frac, 0)
				case a < 0 || ts[a] == ts[b]:
					bsel, asel, frac = append(bsel, run[b]), append(asel, -1), append(frac, 0)
				default:
					bsel, asel = append(bsel, run[b]), append(asel, run[a])
					frac = append(frac, float64(lt-ts[b])/float64(ts[a]-ts[b]))
				}
			}
			i++
		}
	}

	// The right side gathers at the nearest row; the lerp columns, and the
	// nearest columns with absent cells, are rebuilt: the row path sets
	// both on every output row.
	drop := append(slices.Clip(s.dropRight), s.lerpCols...)
	rebuilt := make([]frame.Column, 0, len(s.lerpCols)+len(s.nearestCols))
	for _, c := range s.lerpCols {
		rebuilt = append(rebuilt, lerpColumn(rf.Col(c), c, bsel, asel, frac))
	}
	for _, c := range s.nearestCols {
		if col := rf.Col(c); col == nil || !col.AllPresent() {
			rebuilt = append(rebuilt, lerpColumn(col, c, nsel, nil, nil))
			drop = append(drop, c)
		}
	}
	out := frame.Merge(gatherPieces(ls, lsel), rf.Drop(drop...).Gather(nsel))
	if len(rebuilt) > 0 {
		out = frame.Merge(out, frame.New(rebuilt...))
	}
	return out
}

// sortByTime sorts run, row indexes in ascending order, stably by their
// instants rts[j], so rows on one instant keep their order. One pass finds
// a run already in time order, which returns as it is, and the run's
// earliest instant lo. Any other run is radix-sorted, least significant
// byte first, on the offset t−lo (unsigned, so a span of all 64 bits
// wraps correctly): one counting pass fills a histogram per byte of the
// span, and each byte that is not the same in every row takes one stable
// scatter between run and tmp (at least as long as run). Nothing is
// allocated and no comparator runs.
func sortByTime(run []int32, rts []int64, tmp []int32) {
	if len(run) < 2 {
		return
	}
	lo, hi, presorted := rts[run[0]], rts[run[0]], true
	prev := lo
	for _, j := range run[1:] {
		t := rts[j]
		presorted = presorted && t >= prev
		lo, hi, prev = min(lo, t), max(hi, t), t
	}
	if presorted {
		return
	}
	nb := (bits.Len64(uint64(hi-lo)) + 7) / 8
	var counts [8][256]int32
	for _, j := range run {
		d := uint64(rts[j] - lo)
		for b := 0; b < nb; b++ {
			counts[b][byte(d>>(8*b))]++
		}
	}
	src, dst := run, tmp[:len(run)]
	for b := 0; b < nb; b++ {
		c, shift := &counts[b], 8*b
		if c[byte(uint64(rts[src[0]]-lo)>>shift)] == int32(len(src)) {
			continue // every row has this byte
		}
		var at int32
		for k, n := range c {
			c[k], at = at, at+n
		}
		for _, j := range src {
			k := byte(uint64(rts[j]-lo) >> shift)
			dst[c[k]] = j
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &run[0] {
		copy(run, src)
	}
}

// lerpColumn builds a fully present column from col (nil reads as all
// null): where asel[k] ≥ 0, cell k interpolates rows bsel[k] and asel[k] at
// frac[k] with value.Lerp, a null bracket yielding the other's value;
// elsewhere (and throughout when asel is nil) it copies row bsel[k]. The
// column is the one a frame.Builder given these cells would finish.
func lerpColumn(col *frame.Column, name string, bsel, asel []int32, frac []float64) frame.Column {
	if col != nil && col.Kind() == value.KindFloat {
		return lerpFloats(col, name, bsel, asel, frac)
	}
	at := func(i int32) value.Value {
		if col == nil {
			return value.Null()
		}
		return col.Value(int(i))
	}
	bld := frame.NewBuilder(name, len(bsel))
	for k, b := range bsel {
		v := at(b)
		if asel != nil && asel[k] >= 0 {
			switch av := at(asel[k]); {
			case v.IsNull():
				v = av
			case !av.IsNull():
				v = value.Lerp(v, av, frac[k])
			}
		}
		bld.Set(k, v)
	}
	return bld.Finish()
}

// lerpFloats is lerpColumn over a float-kinded column, computed unboxed.
// An absent bracket yields the other's value, and a cell whose brackets
// are both absent is an explicit null. Without nulls the result is
// float-kinded; with some it is boxed once, as Builder.Finish stores
// floats mixed with nulls — and so is an empty result from a column with
// absent cells, which the Builder also finishes boxed.
func lerpFloats(col *frame.Column, name string, bsel, asel []int32, frac []float64) frame.Column {
	out := make([]float64, len(bsel))
	var null []bool // allocated at the first null
	for k, b := range bsel {
		v, ok := col.FloatAt(int(b)), col.Present(int(b))
		if asel != nil && asel[k] >= 0 {
			a := int(asel[k])
			switch av, aok := col.FloatAt(a), col.Present(a); {
			case !ok:
				v, ok = av, aok
			case aok:
				v = value.Lerp(value.Float(v), value.Float(av), frac[k]).FloatVal()
			}
		}
		out[k] = v
		if !ok {
			if null == nil {
				null = make([]bool, len(bsel))
			}
			null[k] = true
		}
	}
	if null == nil && (len(out) > 0 || col.AllPresent()) {
		return frame.FloatColumn(name, out)
	}
	boxd := make([]value.Value, len(out))
	for k, v := range out {
		if null == nil || !null[k] {
			boxd[k] = value.Float(v)
		}
	}
	c, err := frame.RawColumn(name, value.KindNull, len(boxd), nil, nil, nil, boxd, nil)
	if err != nil {
		panic(err) // unreachable: boxd holds one cell per output row
	}
	return c
}
