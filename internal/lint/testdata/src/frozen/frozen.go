// Package frozen exercises the frameimmut analyzer: writes to frame storage
// after Freeze/publication, including cases visible only through a helper's
// function summary and aliasing through closures handed to the partition
// exchange primitives.
package frozen

import (
	"sjvettest/frame"
	"sjvettest/rdd"
)

var sink []frame.Column

// zero blanks a payload slice in place. Its own body is silent (a []int is
// not frame data); only the summary exposes the mutation to callers that
// hand it live frame payload.
func zero(xs []int) {
	for i := range xs {
		xs[i] = 0
	}
}

// fill overwrites a column's payload in place — a direct violation (the
// column parameter is published storage) that also taints every call site.
func fill(c frame.Column, v int) {
	for i := range c.Ints {
		c.Ints[i] = v
	}
}

// DirtyAccessor writes through the live payload accessor of a frozen frame.
func DirtyAccessor() *frame.Frame {
	b := frame.NewBuilder()
	b.Append(1)
	fr := b.Freeze()
	fr.Cells()[0] = 9
	return fr
}

// DirtyHelper hands a frozen frame's live payload to the mutating helper:
// the violation is only visible through zero's summary.
func DirtyHelper() *frame.Frame {
	b := frame.NewBuilder()
	b.Append(4)
	fr := b.Freeze()
	zero(fr.Cells())
	return fr
}

// DirtyColumnHelper passes a published column view to fill, whose summary
// says it mutates the parameter.
func DirtyColumnHelper(fr *frame.Frame) {
	cols := fr.Cols()
	fill(cols[0], 7)
}

// DirtyShared keeps writing a column after storing it in package state.
func DirtyShared() frame.Column {
	c := frame.Column{Name: "x", Ints: make([]int, 4)}
	sink = append(sink, c)
	c.Ints[0] = 1
	return c
}

// DirtyExchange mutates captured frame storage from a partition-exchange
// closure: every partition aliases the same columns.
func DirtyExchange(fr *frame.Frame) {
	cols := fr.Cols()
	rdd.ExchangePartitions(len(cols), func(i int) {
		cols[i].Ints[0] = -1
	})
}

// DirtyAccessorAlias binds the live payload to a local first — the way
// kernels read payloads — and then writes through the local.
func DirtyAccessorAlias(fr *frame.Frame) {
	cells := fr.Cells()
	cells[0] = 9
}

// CleanAccessorAlias only reads through the bound payload; a bound element
// is a copy, so bumping it leaves the frame alone.
func CleanAccessorAlias(fr *frame.Frame) int {
	cells := fr.Cells()
	first := fr.Cells()[0]
	first++
	return cells[0] + first
}

// CleanBuilder accumulates through the builder and only reads after Freeze.
func CleanBuilder(vals []int) int {
	b := frame.NewBuilder()
	for _, v := range vals {
		b.Append(v)
	}
	fr := b.Freeze()
	total := 0
	for _, c := range fr.Cells() {
		total += c
	}
	return total
}

// CleanFresh writes only storage it freshly allocated and has not yet
// published — the legal in-place pattern.
func CleanFresh(n int) frame.Column {
	c := frame.Column{Name: "fresh", Ints: make([]int, n)}
	for i := range c.Ints {
		c.Ints[i] = i
	}
	return c
}

// CleanZip runs a partition closure that writes only its own fresh storage.
func CleanZip(n int) {
	rdd.ZipPartitions(n, func(i int) {
		tmp := frame.Column{Name: "t", Ints: make([]int, 1)}
		tmp.Ints[0] = i
		_ = tmp
	})
}
