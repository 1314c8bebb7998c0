package frame

import "scrubjay/internal/value"

// MaskValues evaluates pred over one column's cells (absent cells box to
// Null, mirroring value.Row.Get) and returns the keep mask. A frame
// lacking the column yields an all-Null scan, matching the row path.
//
// MaskValues runs inside rdd compute bodies, so pred inherits the rdd
// compute contract: pure with respect to lineage, no writes to captured
// state.
func MaskValues(f *Frame, col string, pred func(value.Value) bool) []bool {
	keep := make([]bool, f.n)
	c := f.Col(col)
	if c == nil {
		null := value.Null()
		for i := range keep {
			keep[i] = pred(null)
		}
		return keep
	}
	for i := 0; i < f.n; i++ {
		keep[i] = pred(c.Value(i))
	}
	return keep
}
