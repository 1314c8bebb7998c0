package derive

import (
	"fmt"
	"strings"

	"scrubjay/internal/dataset"
	"scrubjay/internal/frame"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// joinPair is one shared domain dimension resolved to a concrete column on
// each side.
type joinPair struct {
	Dim      string
	LeftCol  string
	RightCol string
}

// resolveJoinPairs maps every shared domain dimension of two schemas to the
// single domain column carrying it on each side. ScrubJay identifies join
// columns by semantics, not by name (§4.3): a "node" column joins a
// "NODEID" column because both are domains on the compute_node dimension.
func resolveJoinPairs(left, right semantics.Schema) ([]joinPair, error) {
	shared := left.SharedDomainDimensions(right)
	if len(shared) == 0 {
		return nil, fmt.Errorf("derive: no shared domain dimensions between %v and %v",
			left.DomainDimensions(), right.DomainDimensions())
	}
	pairs := make([]joinPair, 0, len(shared))
	for _, dim := range shared {
		lc := left.ColumnsOnDimension(semantics.Domain, dim)
		rc := right.ColumnsOnDimension(semantics.Domain, dim)
		if len(lc) != 1 || len(rc) != 1 {
			return nil, fmt.Errorf("derive: shared dimension %q is ambiguous (%d left, %d right columns)",
				dim, len(lc), len(rc))
		}
		pairs = append(pairs, joinPair{Dim: dim, LeftCol: lc[0], RightCol: rc[0]})
	}
	return pairs, nil
}

// exactMatchable reports whether a join pair's columns can be compared for
// exact equality: identical units, or both scalar units on the same
// dimension (convertible). Structural mismatches (timespan vs datetime,
// list vs scalar) are not exact-matchable — the engine must first explode.
func exactMatchable(p joinPair, left, right semantics.Schema, dict *semantics.Dictionary) bool {
	lu, ru := left[p.LeftCol].Units, right[p.RightCol].Units
	if lu == ru {
		return true
	}
	if lu == "timespan" || ru == "timespan" || lu == "datetime" || ru == "datetime" {
		return false
	}
	if strings.HasPrefix(lu, "list<") || strings.HasPrefix(ru, "list<") {
		return false
	}
	return dict.Units.Convertible(ru, lu)
}

// mergedJoinSchema builds the result schema of a join: left's columns plus
// right's columns, with every right join column dropped — it denotes the
// same entity as its left counterpart, and the left entry (name, units,
// cadence) describes the output.
func mergedJoinSchema(left, right semantics.Schema, pairs []joinPair) (semantics.Schema, error) {
	rs := right.Clone()
	for _, p := range pairs {
		delete(rs, p.RightCol)
	}
	return left.Merge(rs)
}

// joinKey renders the values of the join columns as a canonical composite
// key, converting right-side scalar units to left-side units so that
// semantically equal values key identically.
func joinKey(r value.Row, cols []string, convert []func(value.Value) value.Value) string {
	return string(appendJoinKey(nil, r, cols, convert))
}

// appendJoinKey appends joinKey's rendering of r to b.
func appendJoinKey(b []byte, r value.Row, cols []string, convert []func(value.Value) value.Value) []byte {
	for i, c := range cols {
		v := r.Get(c)
		if convert != nil && convert[i] != nil {
			v = convert[i](v)
		}
		b = appendKeyPart(b, v)
	}
	return b
}

// frameKey renders row i of f over the columns at cols (-1: absent) exactly
// as joinKey renders a row.
func frameKey(f *frame.Frame, i int, cols []int) string {
	var b []byte
	for _, c := range cols {
		v := value.Null()
		if c >= 0 {
			v = f.ColAt(c).Value(i)
		}
		b = appendKeyPart(b, v)
	}
	return string(b)
}

// appendKeyPart appends one key part: the value's kind byte, its rendering
// and a 0 terminator. The kind byte keys apart values that render alike
// (Int(1) and Str("1"), an absent cell and Str("")), as the kind-strict
// frame kernels compare them.
func appendKeyPart(b []byte, v value.Value) []byte {
	b = append(b, byte(v.Kind()))
	b = append(b, v.String()...)
	return append(b, 0)
}

// keyedRow pairs a row with its precomputed composite join key.
type keyedRow struct {
	key string
	row value.Row
}

// preKeyRows renders each row's composite join key once, per partition,
// with a partition-local scratch buffer. The shuffle and the co-group both
// consume the stored key, instead of each rebuilding it row by row (the
// key used to be computed twice per row, each time through a fresh
// strings.Builder).
func preKeyRows(rows *rdd.RDD[value.Row], cols []string, convs []func(value.Value) value.Value) *rdd.RDD[keyedRow] {
	return rdd.MapPartitions(rows, func(_ int, in []value.Row) []keyedRow {
		out := make([]keyedRow, len(in))
		scratch := make([]byte, 0, 64)
		for i, r := range in {
			scratch = appendJoinKey(scratch[:0], r, cols, convs)
			out[i] = keyedRow{key: string(scratch), row: r}
		}
		return out
	})
}

// NaturalJoin relates two datasets by exact match on every shared domain
// dimension (§4.3, §5.3). It is implemented as a hash shuffle join on the
// data-parallel substrate; with 10 nodes it is the cheaper of the paper's
// two evaluated combinations (Figure 3, left).
type NaturalJoin struct{}

func init() {
	RegisterCombination("natural_join", func(map[string]any) (Combination, error) {
		return &NaturalJoin{}, nil
	})
}

// Name implements Combination.
func (n *NaturalJoin) Name() string { return "natural_join" }

// Params implements Combination.
func (n *NaturalJoin) Params() map[string]any { return map[string]any{} }

// DeriveSchema implements Combination: applicable when the schemas share at
// least one domain dimension and every shared dimension is exact-matchable.
func (n *NaturalJoin) DeriveSchema(left, right semantics.Schema, dict *semantics.Dictionary) (semantics.Schema, error) {
	pairs, err := resolveJoinPairs(left, right)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		if !exactMatchable(p, left, right, dict) {
			return nil, fmt.Errorf("natural_join: shared dimension %q is not exact-matchable (units %q vs %q)",
				p.Dim, left[p.LeftCol].Units, right[p.RightCol].Units)
		}
	}
	return mergedJoinSchema(left, right, pairs)
}

// rightConverters builds per-pair unit converters that bring right-side join
// values into left-side units before keying.
func rightConverters(pairs []joinPair, left, right semantics.Schema, dict *semantics.Dictionary) []func(value.Value) value.Value {
	convs := make([]func(value.Value) value.Value, len(pairs))
	for i, p := range pairs {
		lu, ru := left[p.LeftCol].Units, right[p.RightCol].Units
		if lu == ru {
			continue
		}
		conv, err := dict.Units.Converter(ru, lu)
		if err != nil {
			continue // unconvertible values key as they are
		}
		convs[i] = func(v value.Value) value.Value {
			f, ok := v.AsFloat()
			if !ok || v.Kind() == value.KindTime {
				return v
			}
			return value.Float(conv(f))
		}
	}
	return convs
}

// Apply implements Combination.
func (n *NaturalJoin) Apply(left, right *dataset.Dataset, dict *semantics.Dictionary) (*dataset.Dataset, error) {
	schema, err := n.DeriveSchema(left.Schema(), right.Schema(), dict)
	if err != nil {
		return nil, err
	}
	pairs, err := resolveJoinPairs(left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	leftCols := make([]string, len(pairs))
	rightCols := make([]string, len(pairs))
	dropRight := make([]string, len(pairs))
	for i, p := range pairs {
		leftCols[i] = p.LeftCol
		rightCols[i] = p.RightCol
		// The right join column always drops: it denotes the same entity
		// as the left's, whose value (and name) the output keeps.
		dropRight[i] = p.RightCol
	}
	convs := rightConverters(pairs, left.Schema(), right.Schema(), dict)
	name := fmt.Sprintf("natural_join(%s,%s)", left.Name(), right.Name())

	if left.IsColumnar() && right.IsColumnar() {
		return joinColumnar(left, right, schema, name, leftCols, rightCols, dropRight, convs), nil
	}

	joined := rdd.JoinHash(
		preKeyRows(left.Rows(), leftCols, nil),
		preKeyRows(right.Rows(), rightCols, convs),
		func(kr keyedRow) string { return kr.key },
		func(kr keyedRow) string { return kr.key },
	)
	rows := rdd.Map(joined, func(p rdd.Pair[keyedRow, keyedRow]) value.Row {
		r := p.Right.row
		if len(dropRight) > 0 {
			r = r.Clone()
			for _, c := range dropRight {
				delete(r, c)
			}
		}
		return p.Left.row.Merge(r)
	})
	return dataset.New(name, rows.WithName(name), schema), nil
}
