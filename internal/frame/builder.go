package frame

import "scrubjay/internal/value"

// Builder accumulates one output column cell-by-cell for kernels whose
// output types are not statically known (join coalescing, explode
// payloads). Cells default to absent; Finish picks dense typed storage
// when the present cells share one scalar kind.
type Builder struct {
	name string
	vals []value.Value
	set  []bool
}

// NewBuilder returns a builder for an n-cell column.
func NewBuilder(name string, n int) *Builder {
	return &Builder{name: name, vals: make([]value.Value, n), set: make([]bool, n)}
}

// Reset reuses the builder's scratch for a new n-cell column, growing the
// vals/set slices only past their high-water mark. Finish copies cells into
// fresh typed vectors and never retains the scratch, so a caller building
// many columns of the same frame (join coalescing builds one per output
// column) pays the two scratch allocations once instead of per column.
func (b *Builder) Reset(name string, n int) *Builder {
	b.name = name
	if cap(b.vals) < n {
		b.vals = make([]value.Value, n)
		b.set = make([]bool, n)
		return b
	}
	b.vals = b.vals[:n]
	b.set = b.set[:n]
	for i := range b.vals {
		b.vals[i] = value.Value{}
		b.set[i] = false
	}
	return b
}

// Set makes cell i present with value v (explicit nulls allowed).
func (b *Builder) Set(i int, v value.Value) {
	b.set[i] = true
	b.vals[i] = v
}

// Finish freezes the accumulated cells into a Column. String columns are
// dictionary-encoded under the same gate as FromRows.
func (b *Builder) Finish() Column {
	var ks kindScan
	for i, v := range b.vals {
		if b.set[i] {
			ks.add(v)
		}
	}
	return freeze(b.name, len(b.vals), &ks, nil, func(i int) (value.Value, bool) {
		return b.vals[i], b.set[i]
	})
}

// ColumnOf builds a fully present column from boxed values (typed storage
// when the values share one scalar kind). The values are frozen in place,
// not copied into a builder first; vals is not retained.
func ColumnOf(name string, vals []value.Value) Column {
	var ks kindScan
	for _, v := range vals {
		ks.add(v)
	}
	return freeze(name, len(vals), &ks, nil, func(i int) (value.Value, bool) {
		return vals[i], true
	})
}

// TimeColumn builds a fully present time-kinded column from Unix
// nanosecond instants. Like FloatColumn it takes ownership of nanos.
func TimeColumn(name string, nanos []int64) Column {
	return Column{name: name, kind: value.KindTime, ints: nanos, n: len(nanos)}
}

// AbsentColumn builds an n-cell column with no present cell, stored boxed:
// the column a Builder no cell was set in finishes as.
func AbsentColumn(name string, n int) Column {
	c := Column{name: name, kind: value.KindNull, boxd: make([]value.Value, n), n: n}
	if n > 0 {
		c.pres = newBits(n)
	}
	return c
}

// FloatColumn builds a fully present float-kinded column. It is an
// ownership-transfer constructor: vals becomes the column's storage, not a
// copy, so the caller must not write it afterwards.
func FloatColumn(name string, vals []float64) Column {
	return Column{name: name, kind: value.KindFloat, flts: vals, n: len(vals)}
}

// FloatColumnWhere builds a float-kinded column whose cell i holds vals[i]
// when ok[i] and is absent otherwise. Like FloatColumn it takes ownership
// of vals.
func FloatColumnWhere(name string, vals []float64, ok []bool) Column {
	c := FloatColumn(name, vals)
	for _, o := range ok {
		if !o {
			c.pres = newBits(len(ok))
			for i, o := range ok {
				if o {
					setBit(c.pres, i)
				}
			}
			break
		}
	}
	return c
}

// withFloats returns a copy of a float-kinded column with its payload
// vector replaced (presence and name preserved). Used by the vectorized
// unit-conversion kernel; the input column is not modified.
func (c *Column) withFloats(vals []float64) Column {
	out := *c
	out.flts = vals
	return out
}
