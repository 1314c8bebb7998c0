package derive

import (
	"fmt"
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
// within a window W. Each dataset is binned twice into bins of width 2W,
// the second binning offset by exactly W; any two instants within W of each
// other share a bin in at least one binning, so candidate pairs are found
// with local work only — no global sort, no pairwise distance matrix. Pairs
// whose instants share a first-binning bin are emitted there; all other
// in-window pairs are emitted from the offset binning, so no pair is
// produced twice.
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
	w := int64(j.WindowSeconds * 1e9)
	leftExact := make([]string, len(exact))
	rightExact := make([]string, len(exact))
	for i, p := range exact {
		leftExact[i] = p.LeftCol
		rightExact[i] = p.RightCol
	}
	convs := rightConverters(exact, left.Schema(), right.Schema(), dict)

	// Right-side join columns always drop from merged rows: they denote
	// the same entity as the left's. In particular the probe row's instant
	// survives, not the matched right sample's.
	var dropRight []string
	for _, p := range append(exact, timePair) {
		dropRight = append(dropRight, p.RightCol)
	}
	// Right-side residual domain columns: unshared domains (e.g. a sensor
	// location). Per left row, interpolation happens independently within
	// each residual combination.
	var rightResidual []string
	{
		sharedRight := map[string]bool{timePair.RightCol: true}
		for _, p := range exact {
			sharedRight[p.RightCol] = true
		}
		for _, c := range right.Schema().DomainColumns() {
			if !sharedRight[c] {
				rightResidual = append(rightResidual, c)
			}
		}
	}
	// Right value columns partition into interpolable (ordered dimension)
	// and nearest-only.
	var lerpCols, nearestCols []string
	for _, c := range right.Schema().ValueColumns() {
		dim, ok := dict.LookupDimension(right.Schema()[c].Dimension)
		if ok && dim.Ordered {
			lerpCols = append(lerpCols, c)
		} else {
			nearestCols = append(nearestCols, c)
		}
	}

	ltCol, rtCol := timePair.LeftCol, timePair.RightCol
	name := fmt.Sprintf("interpolation_join(%s,%s)", left.Name(), right.Name())

	if left.IsColumnar() && right.IsColumnar() {
		cands := interpCandidatesColumnar(left, right, ltCol, rtCol, leftExact, rightExact, convs, w)
		rows := interpAssembleColumnar(cands, rightResidual, lerpCols, nearestCols, dropRight)
		return dataset.New(name, rows.WithName(name), schema).Columnar(), nil
	}

	// Tag left rows with unique ids and both bin keys.
	tagBoth := func(exKey string, t int64) (keyA, keyB string, binA int64) {
		binA = floorDiv(t, 2*w)
		binB := floorDiv(t+w, 2*w)
		return exKey + "|A" + strconv.FormatInt(binA, 10),
			exKey + "|B" + strconv.FormatInt(binB, 10),
			binA
	}
	leftTagged := rdd.MapPartitions(left.Rows(), func(part int, in []value.Row) []interpTagged {
		out := make([]interpTagged, 0, 2*len(in))
		for i, r := range in {
			tv := r.Get(ltCol)
			if tv.Kind() != value.KindTime {
				continue
			}
			t := tv.TimeNanosVal()
			id := int64(part)<<40 | int64(i)
			exKey := joinKey(r, leftExact, nil)
			ka, kb, binA := tagBoth(exKey, t)
			out = append(out,
				interpTagged{key: ka, id: id, t: t, binA: binA, row: r},
				interpTagged{key: kb, id: id, t: t, binA: binA, row: r})
		}
		return out
	}).WithName(left.Name() + "|interp-tag")

	rightTagged := rdd.FlatMap(right.Rows(), func(r value.Row) []interpTagged {
		tv := r.Get(rtCol)
		if tv.Kind() != value.KindTime {
			return nil
		}
		t := tv.TimeNanosVal()
		exKey := joinKey(r, rightExact, convs)
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
				if dt > w {
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

	rows := interpAssemble(cands, rightResidual, lerpCols, nearestCols, dropRight)
	return dataset.New(name, rows.WithName(name), schema), nil
}

// interpAssemble is the downstream half of the interpolation join on the
// row path: candidates regroup by their left row's id, split by the right
// side's residual domain columns, and each residual group interpolates into
// one output row.
func interpAssemble(cands *rdd.RDD[interpCand], rightResidual, lerpCols, nearestCols, dropRight []string) *rdd.RDD[value.Row] {
	perLeft := rdd.GroupByKey(cands, func(c interpCand) string {
		return strconv.FormatInt(c.id, 10)
	})
	return rdd.FlatMap(perLeft, func(g rdd.Group[interpCand]) []value.Row {
		return assembleLeftGroup(g.Items, rightResidual, lerpCols, nearestCols, dropRight)
	})
}

// assembleLeftGroup turns one left row's candidates into output rows: one
// per right-residual combination, in sorted residual-key order. Shared by
// the row and columnar assemble stages so both emit identical rows.
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
