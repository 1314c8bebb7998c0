package derive

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// InterpolationJoin relates two datasets over a shared ordered, continuous
// domain (time) whose recordings do not match exactly — the paper's novel
// data-parallel algorithm (§5.3). Correspondences are restricted to pairs
// within a window W, found by binning time into bins of width 2W so that
// candidate pairs need local work only — no global sort, no pairwise
// distance matrix. The columnar kernel (interpJoinColumnar) bins the left
// side once and replicates each right row into the two bins its window
// touches; the row-form reference below bins both sides twice, the second
// binning offset by W, and emits each pair from exactly one binning. Both
// find every in-window pair exactly once.
//
// Every other shared domain dimension must match exactly, and right-side
// rows are grouped by their remaining (unshared) domain columns; per group
// the right-side values bracketing the left instant are linearly
// interpolated (ordered values) or taken from the nearest row (unordered
// values), implementing the paper's semantics-driven aggregation.
type InterpolationJoin struct {
	// WindowSeconds is the correspondence window W.
	WindowSeconds float64
}

func init() {
	RegisterCombination("interpolation_join", func(p map[string]any) (Combination, error) {
		w, err := paramFloat(p, "window_seconds")
		if err != nil {
			return nil, err
		}
		return &InterpolationJoin{WindowSeconds: w}, nil
	})
}

// Name implements Combination.
func (j *InterpolationJoin) Name() string { return "interpolation_join" }

// Params implements Combination.
func (j *InterpolationJoin) Params() map[string]any {
	return map[string]any{"window_seconds": j.WindowSeconds}
}

// resolveInterp splits the shared domain dimensions into the single
// interpolated (ordered continuous, datetime-valued) pair and the
// exact-match pairs.
func (j *InterpolationJoin) resolveInterp(left, right semantics.Schema, dict *semantics.Dictionary) (timePair joinPair, exact []joinPair, err error) {
	pairs, err := resolveJoinPairs(left, right)
	if err != nil {
		return joinPair{}, nil, err
	}
	found := false
	for _, p := range pairs {
		dim, ok := dict.LookupDimension(p.Dim)
		if ok && dim.Ordered && dim.Continuous &&
			left[p.LeftCol].Units == "datetime" && right[p.RightCol].Units == "datetime" {
			if found {
				return joinPair{}, nil, fmt.Errorf("interpolation_join: more than one interpolable shared dimension")
			}
			timePair, found = p, true
			continue
		}
		if !exactMatchable(p, left, right, dict) {
			return joinPair{}, nil, fmt.Errorf("interpolation_join: shared dimension %q is not exact-matchable", p.Dim)
		}
		exact = append(exact, p)
	}
	if !found {
		return joinPair{}, nil, fmt.Errorf("interpolation_join: no shared ordered continuous (datetime) dimension")
	}
	return timePair, exact, nil
}

// DeriveSchema implements Combination.
func (j *InterpolationJoin) DeriveSchema(left, right semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	if j.WindowSeconds <= 0 {
		return nil, fmt.Errorf("interpolation_join: window must be positive, got %v", j.WindowSeconds)
	}
	timePair, exact, err := j.resolveInterp(left, right, dict)
	if err != nil {
		return nil, err
	}
	return mergedJoinSchema(left, right, append(exact, timePair))
}

// floorDiv divides rounding toward negative infinity, so binning behaves
// for pre-epoch timestamps too.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

type interpTagged struct {
	key  string
	id   int64 // left rows only: unique id for regrouping
	t    int64 // instant, unix nanos
	binA int64 // first-binning index, for pair dedup
	row  value.Row
}

type interpCand struct {
	id   int64
	lrow value.Row
	lt   int64
	rrow value.Row
	rt   int64
}

// interpSpec is an interpolation join resolved against its two schemas.
// dropRight holds the right join columns (the left's, and so the probe
// row's instant, survive); rightResidual the right's unshared domain
// columns, within each combination of which a left row interpolates
// independently; lerpCols and nearestCols the right value columns on
// ordered and unordered dimensions.
type interpSpec struct {
	w                        int64 // window W, nanoseconds
	ltCol, rtCol             string
	leftExact, rightExact    []string
	convs                    []func(value.Value) value.Value
	dropRight, rightResidual []string
	lerpCols, nearestCols    []string
}

// Apply implements Combination.
func (j *InterpolationJoin) Apply(left, right *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := j.DeriveSchema(left.Schema(), right.Schema(), dict)
	if err != nil {
		return nil, err
	}
	timePair, exact, err := j.resolveInterp(left.Schema(), right.Schema(), dict)
	if err != nil {
		return nil, err
	}
	s := &interpSpec{
		w:     int64(j.WindowSeconds * 1e9),
		ltCol: timePair.LeftCol, rtCol: timePair.RightCol,
		convs: rightConverters(exact, left.Schema(), right.Schema(), dict),
	}
	sharedRight := map[string]bool{timePair.RightCol: true}
	for _, p := range exact {
		s.leftExact = append(s.leftExact, p.LeftCol)
		s.rightExact = append(s.rightExact, p.RightCol)
		s.dropRight = append(s.dropRight, p.RightCol)
		sharedRight[p.RightCol] = true
	}
	s.dropRight = append(s.dropRight, timePair.RightCol)
	for _, c := range right.Schema().DomainColumns() {
		if !sharedRight[c] {
			s.rightResidual = append(s.rightResidual, c)
		}
	}
	for _, c := range right.Schema().ValueColumns() {
		dim, ok := dict.LookupDimension(right.Schema()[c].Dimension)
		if ok && dim.Ordered {
			s.lerpCols = append(s.lerpCols, c)
		} else {
			s.nearestCols = append(s.nearestCols, c)
		}
	}

	name := fmt.Sprintf("interpolation_join(%s,%s)", left.Name(), right.Name())
	if left.IsColumnar() && right.IsColumnar() {
		return interpJoinColumnar(left.Frames(), right.Frames(), s, schema, name), nil
	}
	return dataset.New(name, interpJoinRows(left, right, s).WithName(name), schema), nil
}

// interpJoinRows is the row-form reference the columnar kernel is tested
// against: dual binning over composite string keys, a co-group per
// (exact key, binning, bin), then a regroup of the in-window candidates by
// left row, split by residual key and interpolated.
func interpJoinRows(left, right *dataset.Dataset, s *interpSpec) *rdd.RDD[value.Row] {
	// Tag left rows with unique ids and both bin keys.
	tagBoth := func(exKey string, t int64) (keyA, keyB string, binA int64) {
		binA = floorDiv(t, 2*s.w)
		binB := floorDiv(t+s.w, 2*s.w)
		return exKey + "|A" + strconv.FormatInt(binA, 10),
			exKey + "|B" + strconv.FormatInt(binB, 10),
			binA
	}
	leftTagged := rdd.MapPartitions(left.Rows(), func(part int, in []value.Row) []interpTagged {
		out := make([]interpTagged, 0, 2*len(in))
		for i, r := range in {
			tv := r.Get(s.ltCol)
			if tv.Kind() != value.KindTime {
				continue
			}
			t := tv.TimeNanosVal()
			id := int64(part)<<40 | int64(i)
			exKey := joinKey(r, s.leftExact, nil)
			ka, kb, binA := tagBoth(exKey, t)
			out = append(out,
				interpTagged{key: ka, id: id, t: t, binA: binA, row: r},
				interpTagged{key: kb, id: id, t: t, binA: binA, row: r})
		}
		return out
	}).WithName(left.Name() + "|interp-tag")

	rightTagged := rdd.FlatMap(right.Rows(), func(r value.Row) []interpTagged {
		tv := r.Get(s.rtCol)
		if tv.Kind() != value.KindTime {
			return nil
		}
		t := tv.TimeNanosVal()
		exKey := joinKey(r, s.rightExact, s.convs)
		ka, kb, binA := tagBoth(exKey, t)
		return []interpTagged{
			{key: ka, t: t, binA: binA, row: r},
			{key: kb, t: t, binA: binA, row: r},
		}
	}).WithName(right.Name() + "|interp-tag")

	cog := rdd.CoGroup(leftTagged, rightTagged,
		func(e interpTagged) string { return e.key },
		func(e interpTagged) string { return e.key })

	cands := rdd.FlatMap(cog, func(g rdd.CoGrouped[interpTagged, interpTagged]) []interpCand {
		if len(g.Left) == 0 || len(g.Right) == 0 {
			return nil
		}
		// The bin tag is the suffix "|A<idx>" or "|B<idx>" appended by
		// tagBoth; the byte after the last '|' identifies the binning.
		tagAt := strings.LastIndexByte(g.Key, '|')
		offsetBin := tagAt >= 0 && tagAt+1 < len(g.Key) && g.Key[tagAt+1] == 'B'
		var out []interpCand
		for _, l := range g.Left {
			for _, r := range g.Right {
				dt := l.t - r.t
				if dt < 0 {
					dt = -dt
				}
				if dt > s.w {
					continue
				}
				// Dedup: pairs sharing a first-binning bin are emitted
				// there; the offset binning emits only the rest.
				if offsetBin && l.binA == r.binA {
					continue
				}
				out = append(out, interpCand{id: l.id, lrow: l.row, lt: l.t, rrow: r.row, rt: r.t})
			}
		}
		return out
	}).WithName("interp-candidates")

	// Candidates regroup by left row; each partition emits its left rows in
	// ascending id — left input order, the columnar kernel's order too.
	perLeft := rdd.GroupByKey(cands, func(c interpCand) string {
		return strconv.FormatInt(c.id, 10)
	})
	return rdd.MapPartitions(perLeft, func(_ int, gs []rdd.Group[interpCand]) []value.Row {
		byID := slices.Clone(gs)
		slices.SortFunc(byID, func(a, b rdd.Group[interpCand]) int {
			return cmp.Compare(a.Items[0].id, b.Items[0].id)
		})
		var out []value.Row
		for _, g := range byID {
			out = append(out, assembleLeftGroup(g.Items, s.rightResidual, s.lerpCols, s.nearestCols, s.dropRight)...)
		}
		return out
	})
}

// assembleLeftGroup turns one left row's candidates into output rows: one
// per right-residual combination, in sorted residual-key order.
func assembleLeftGroup(cs []interpCand, rightResidual, lerpCols, nearestCols, dropRight []string) []value.Row {
	if len(rightResidual) == 0 {
		return []value.Row{interpolateCandidates(cs, lerpCols, nearestCols, dropRight)}
	}
	byResidual := make(map[string][]interpCand)
	for _, c := range cs {
		k := joinKey(c.rrow, rightResidual, nil)
		byResidual[k] = append(byResidual[k], c)
	}
	keys := make([]string, 0, len(byResidual))
	for k := range byResidual {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Row, 0, len(keys))
	for _, k := range keys {
		out = append(out, interpolateCandidates(byResidual[k], lerpCols, nearestCols, dropRight))
	}
	return out
}

// interpolateCandidates merges one left row with the right rows of one
// residual group: the nearest right rows before and after the left instant
// bracket it; ordered value columns interpolate linearly, unordered ones
// take the nearest reading.
func interpolateCandidates(cs []interpCand, lerpCols, nearestCols, dropRight []string) value.Row {
	lt := cs[0].lt
	var before, after *interpCand
	for i := range cs {
		c := &cs[i]
		if c.rt <= lt {
			if before == nil || c.rt > before.rt {
				before = c
			}
		}
		if c.rt >= lt {
			if after == nil || c.rt < after.rt {
				after = c
			}
		}
	}
	nearest := before
	if nearest == nil || (after != nil && after.rt-lt < lt-nearest.rt) {
		nearest = after
	}
	base := nearest.rrow.Clone()
	if before != nil && after != nil && before.rt != after.rt {
		t := float64(lt-before.rt) / float64(after.rt-before.rt)
		for _, c := range lerpCols {
			bv, av := before.rrow.Get(c), after.rrow.Get(c)
			switch {
			case bv.IsNull():
				base[c] = av
			case av.IsNull():
				base[c] = bv
			default:
				base[c] = value.Lerp(bv, av, t)
			}
		}
	} else if before != nil || after != nil {
		src := before
		if src == nil {
			src = after
		}
		for _, c := range lerpCols {
			base[c] = src.rrow.Get(c)
		}
	}
	for _, c := range nearestCols {
		base[c] = nearest.rrow.Get(c)
	}
	for _, c := range dropRight {
		delete(base, c)
	}
	return cs[0].lrow.Merge(base)
}
