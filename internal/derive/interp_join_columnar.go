package derive

import (
	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/value"
)

// Vectorized front end of the interpolation join. The row path renders a
// composite string key per tagged copy (exact columns plus bin tag) and
// co-groups on it; here the exact columns hash once per batch as a vector
// (frame.HashOn), the bin tag folds into that hash with integer mixing, and
// the tagged copies exchange on the mixed hash with no string keys at all.
// Because the key is a hash rather than the values themselves, pairing
// groups entries into verified classes — same tag, same bin, equal exact
// columns — before any pair is emitted, so hash collisions cannot create
// pairs the row path would not.
//
// Candidate order replicates the row path's CoGroup semantics: classes
// emit in the order their first left entry arrives, each class left-major
// then right-major in arrival order. With one partition the candidate
// stream is identical to the row path's; across partitions only placement
// differs (hash-of-hash versus hash-of-string), so outputs agree as
// multisets.

// interpTaggedC is one tagged bin copy of a row in the columnar front end.
type interpTaggedC struct {
	kh      uint64 // mixed hash: exact columns ⊕ tag ⊕ bin index
	id      int64  // left rows only: unique id for regrouping
	t       int64  // instant, unix nanos
	binA    int64  // first-binning index, for pair dedup
	binSelf int64  // the bin this copy was emitted for
	tag     byte   // 'A' first binning, 'B' offset binning
	row     value.Row
}

// binKeyMix folds a row's exact-column hash with the binning tag and bin
// index into the exchange key for one tagged copy.
func binKeyMix(h uint64, tag byte, bin int64) uint64 {
	const prime = 1099511628211
	x := (h ^ uint64(tag)) * prime
	x = (x ^ uint64(bin)) * prime
	return x
}

// exactRowsEqual reports whether two rows agree on every exact-match join
// pair, converting right-side units as the row path's key rendering does.
func exactRowsEqual(l, r value.Row, lcols, rcols []string, convs []func(value.Value) value.Value) bool {
	for i := range lcols {
		rv := r.Get(rcols[i])
		if convs != nil && convs[i] != nil {
			rv = convs[i](rv)
		}
		if !l.Get(lcols[i]).Equal(rv) {
			return false
		}
	}
	return true
}

// tagFramesC emits the two tagged bin copies of every row in a columnar
// dataset. withIDs assigns the left side's unique per-row ids; ids follow
// the partition's row order, matching the row path's numbering. Each source
// row is boxed once and shared by both copies, mirroring how the row path's
// copies reference one input row.
func tagFramesC(frames *rdd.RDD[*frame.Frame], tCol string, exactCols []string,
	convs []func(value.Value) value.Value, w int64, withIDs bool, name string) *rdd.RDD[interpTaggedC] {

	return rdd.MapPartitions(frames, func(part int, fs []*frame.Frame) []interpTaggedC {
		var out []interpTaggedC
		base := 0
		for _, f := range fs {
			n := f.NumRows()
			if n == 0 {
				continue
			}
			eh := f.HashOn(exactCols, convs)
			tc := f.Col(tCol)
			typed := tc != nil && tc.Kind() == value.KindTime
			var tInts []int64
			if typed {
				tInts = tc.Ints()
			}
			for i := 0; i < n; i++ {
				var t int64
				if typed && tc.Present(i) {
					t = tInts[i]
				} else {
					var v value.Value
					if tc != nil {
						v = tc.Value(i)
					}
					if v.Kind() != value.KindTime {
						continue
					}
					t = v.TimeNanosVal()
				}
				binA := floorDiv(t, 2*w)
				binB := floorDiv(t+w, 2*w)
				var id int64
				if withIDs {
					id = int64(part)<<40 | int64(base+i)
				}
				r := f.RowAt(i)
				out = append(out,
					interpTaggedC{kh: binKeyMix(eh[i], 'A', binA), id: id, t: t,
						binA: binA, binSelf: binA, tag: 'A', row: r},
					interpTaggedC{kh: binKeyMix(eh[i], 'B', binB), id: id, t: t,
						binA: binA, binSelf: binB, tag: 'B', row: r})
			}
			base += n
		}
		return out
	}).WithName(name)
}

// interpCandidatesColumnar produces the in-window candidate pairs for two
// columnar datasets. The bins and dedup rule are the row path's (§5.3 dual
// binning); only the keying differs, so every pairing is verified against
// the conditions the string key encoded.
func interpCandidatesColumnar(left, right *dataset.Dataset, ltCol, rtCol string,
	leftExact, rightExact []string, convs []func(value.Value) value.Value, w int64) *rdd.RDD[interpCand] {

	leftTagged := tagFramesC(left.Frames(), ltCol, leftExact, nil, w, true, left.Name()+"|interp-tag")
	rightTagged := tagFramesC(right.Frames(), rtCol, rightExact, convs, w, false, right.Name()+"|interp-tag")

	numOut := left.Frames().NumPartitions()
	if n := right.Frames().NumPartitions(); n > numOut {
		numOut = n
	}
	split := func(_ int, in []interpTaggedC) [][]interpTaggedC {
		out := make([][]interpTaggedC, numOut)
		for _, e := range in {
			d := int(e.kh % uint64(numOut))
			out[d] = append(out[d], e)
		}
		return out
	}
	lx := rdd.ExchangePartitions(rdd.WithWire(leftTagged, interpTaggedCWire), numOut, leftTagged.Name(), split)
	rx := rdd.ExchangePartitions(rdd.WithWire(rightTagged, interpTaggedCWire), numOut, rightTagged.Name(), split)

	return rdd.ZipPartitions(lx, rx, func(part int, ls, rs []interpTaggedC) []interpCand {
		// Verified first-seen classes over the left entries: a class is one
		// (exact values, tag, bin) combination, exactly a row-path CoGroup
		// key. Hash buckets may hold several classes (collisions), so class
		// membership always re-checks the underlying values.
		type class struct{ ls, rs []int32 }
		var classes []class
		buckets := make(map[uint64][]int32, len(ls))
		for i := range ls {
			e := &ls[i]
			gid := int32(-1)
			for _, g := range buckets[e.kh] {
				rep := &ls[classes[g].ls[0]]
				if rep.tag == e.tag && rep.binSelf == e.binSelf &&
					exactRowsEqual(rep.row, e.row, leftExact, leftExact, nil) {
					gid = g
					break
				}
			}
			if gid < 0 {
				gid = int32(len(classes))
				classes = append(classes, class{})
				buckets[e.kh] = append(buckets[e.kh], gid)
			}
			classes[gid].ls = append(classes[gid].ls, int32(i))
		}
		for i := range rs {
			e := &rs[i]
			for _, g := range buckets[e.kh] {
				rep := &ls[classes[g].ls[0]]
				if rep.tag == e.tag && rep.binSelf == e.binSelf &&
					exactRowsEqual(rep.row, e.row, leftExact, rightExact, convs) {
					classes[g].rs = append(classes[g].rs, int32(i))
					break
				}
			}
		}
		var out []interpCand
		for _, c := range classes {
			if len(c.rs) == 0 {
				continue
			}
			for _, li := range c.ls {
				l := &ls[li]
				for _, ri := range c.rs {
					r := &rs[ri]
					dt := l.t - r.t
					if dt < 0 {
						dt = -dt
					}
					if dt > w {
						continue
					}
					// Dedup: pairs sharing a first-binning bin are emitted
					// there; the offset binning emits only the rest.
					if l.tag == 'B' && l.binA == r.binA {
						continue
					}
					out = append(out, interpCand{id: l.id, lrow: l.row, lt: l.t, rrow: r.row, rt: r.t})
				}
			}
		}
		return out
	}).WithName("interp-candidates")
}

// interpAssembleColumnar is the columnar downstream half: the same
// regroup-by-left-id as the row path's interpAssemble, but keyed on the id
// integer itself — no per-candidate string rendering, no string-keyed
// grouping. Group emission order (first-seen id, then sorted residual keys)
// matches interpAssemble exactly, so at one partition the two stages
// produce identical row streams.
func interpAssembleColumnar(cands *rdd.RDD[interpCand], rightResidual, lerpCols, nearestCols, dropRight []string) *rdd.RDD[value.Row] {
	numOut := cands.NumPartitions()
	ex := rdd.ExchangePartitions(rdd.WithWire(cands, interpCandWire), numOut, cands.Name(), func(_ int, in []interpCand) [][]interpCand {
		out := make([][]interpCand, numOut)
		for _, c := range in {
			d := int(uint64(c.id) % uint64(numOut))
			out[d] = append(out[d], c)
		}
		return out
	})
	return rdd.MapPartitions(ex, func(_ int, in []interpCand) []value.Row {
		byID := make(map[int64]int32, len(in))
		var groups [][]interpCand
		for _, c := range in {
			gid, ok := byID[c.id]
			if !ok {
				gid = int32(len(groups))
				byID[c.id] = gid
				groups = append(groups, nil)
			}
			groups[gid] = append(groups[gid], c)
		}
		var out []value.Row
		for _, cs := range groups {
			out = append(out, assembleLeftGroup(cs, rightResidual, lerpCols, nearestCols, dropRight)...)
		}
		return out
	})
}
