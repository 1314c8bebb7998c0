package derive

import (
	"testing"

	"scrubjay/internal/dataset"
	"scrubjay/internal/rdd"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

// TestFuzzSeedsReachDictionaries: the differential fuzzers hold the
// kernels to the row path on dictionary-encoded keys too, because some
// seed input of each pivots to a dictionary column on every side. Their
// alphabets are tiny, so a pivot over a dozen rows already codes them.
func TestFuzzSeedsReachDictionaries(t *testing.T) {
	type sides struct {
		rows    [][]value.Row
		schemas []semantics.Schema
		parts   int
	}
	for _, fz := range []struct {
		name  string
		seeds func() [][]byte
		build func([]byte) sides
	}{
		{"FuzzNaturalJoin", natJoinSeeds, func(b []byte) sides {
			c := natJoinCaseFromBytes(b)
			ls, rs := natJoinSchemas()
			return sides{[][]value.Row{c.lrows, c.rrows}, []semantics.Schema{ls, rs}, c.lparts}
		}},
		{"FuzzInterpolationJoin", interpSeeds, func(b []byte) sides {
			c, parts := interpCaseFromBytes(b)
			return sides{[][]value.Row{c.lrows, c.rrows}, []semantics.Schema{c.ls, c.rs}, parts}
		}},
		{"FuzzGroupAggregate", groupSeeds, func(b []byte) sides {
			c, parts := groupCaseFromBytes(b)
			return sides{[][]value.Row{c.rows}, []semantics.Schema{c.schema}, parts}
		}},
	} {
		reached, seeds := 0, fz.seeds()
		for _, seed := range seeds {
			s := fz.build(seed)
			all := true
			for i, rows := range s.rows {
				all = all && pivotsToDict(rows, s.schemas[i], s.parts)
			}
			if all {
				reached++
			}
		}
		t.Logf("%s: %d of %d seeds pivot to a dictionary column on every side", fz.name, reached, len(seeds))
		if reached == 0 {
			t.Errorf("%s: no seed input pivots to a dictionary column on every side", fz.name)
		}
	}
}

// pivotsToDict reports whether some column of the columnar dataset over
// rows is dictionary-encoded.
func pivotsToDict(rows []value.Row, schema semantics.Schema, parts int) bool {
	frames := dataset.FromRowsColumnar(rdd.NewContext(1), "in", rows, schema, parts).Frames().Collect()
	for _, f := range frames {
		for j := 0; j < f.NumCols(); j++ {
			if f.ColAt(j).DictEncoded() {
				return true
			}
		}
	}
	return false
}
