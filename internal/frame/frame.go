// Package frame implements ScrubJay's columnar batch representation: a
// Frame is a fixed-length batch of rows stored as dense typed column
// vectors (int64 / float64 / string / time / span) with presence bitmaps,
// the Tungsten-style substrate beneath the vectorized derivation kernels
// (§5.3). value.Row remains the boundary format — FromRows/ToRows convert
// at ingest and egress — and every cell observable through Value/RowAt is
// bit-for-bit identical to the row it came from, so the row-at-a-time
// reference implementations in internal/derive stay directly comparable.
//
// Frames are IMMUTABLE after construction: kernels never mutate a frame in
// place, they build new frames (sharing column storage where the operation
// is a pure column subset, as Select/Drop do). No exported method returns a
// column's storage — cells are read through scalar accessors — so code
// outside this package cannot write into a frame's vectors. This is what
// makes it safe for rdd partitions to carry *Frame batches under the rdd
// compute contract and for the server to share one set of catalog frames
// across concurrent requests.
package frame

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"scrubjay/internal/value"
)

// Column is one named column vector of a Frame. Cells of a uniform scalar
// kind are stored densely in a typed slice; columns holding mixed kinds,
// lists, or explicit nulls fall back to boxed value.Value storage (kind ==
// value.KindNull marks the boxed representation). A string column stores
// either one arena of its cells' bytes or, dictionary-encoded (dict.go),
// one code per cell into a shared dictionary. A nil presence bitmap means
// every cell is present.
//
// A plain string column is Arrow's variable-size binary layout: sdat holds
// every cell's bytes back to back and soff its n+1 offsets, so cell i is
// sdat[soff[i]:soff[i+1]] and an absent cell is empty. Comparing two keys
// reads contiguous bytes, not two scattered heap strings, and the column
// is two objects the garbage collector never scans into, not n string
// headers it must. Every arena is sized exactly before it is filled
// (growArena), and a string that can outlive the column (a dictionary
// entry) is copied out of it, never left pinning it.
type Column struct {
	name  string
	kind  value.Kind // uniform kind of the cells; KindNull => boxed storage
	ints  []int64    // int / bool (0,1) / time payloads; span starts
	flts  []float64
	sdat  string   // plain string payloads, back to back
	soff  []uint32 // plain string offsets: n+1 of them, the first 0
	codes []uint32 // dictionary-encoded string payloads: cell i is dict.vals[codes[i]]
	dict  *dict    // non-nil exactly when the strings are dictionary-encoded
	ends  []int64  // span ends
	boxd  []value.Value
	pres  []uint64 // presence bitmap; nil = all cells present
	n     int
}

// Name returns the column name.
func (c *Column) Name() string { return c.name }

// Kind returns the uniform kind of the column's cells; value.KindNull
// reports boxed (mixed/list/null-bearing) storage.
func (c *Column) Kind() value.Kind { return c.kind }

// Len returns the number of cells (present or absent).
func (c *Column) Len() int { return c.n }

// Present reports whether cell i holds a value (the source row had the
// column, even if its value was an explicit null).
func (c *Column) Present(i int) bool {
	return c.pres == nil || c.pres[i>>6]&(1<<(uint(i)&63)) != 0
}

// AllPresent reports whether every cell is present.
func (c *Column) AllPresent() bool { return c.pres == nil }

// IntAt returns the payload of cell i of an int-, bool- (0 or 1) or
// time-kinded (Unix nanoseconds) column, or the start of a span column's
// cell i. Like every accessor it copies a scalar out: no exported method
// hands out a column's storage, so code outside this package cannot write
// into a published frame.
func (c *Column) IntAt(i int) int64 { return c.ints[i] }

// FloatAt returns the payload of cell i of a float-kinded column.
func (c *Column) FloatAt(i int) float64 { return c.flts[i] }

// StrAt returns the payload of cell i of a string-kinded column.
func (c *Column) StrAt(i int) string {
	if c.dict != nil {
		return c.dict.vals[c.codes[i]]
	}
	return c.sdat[c.soff[i]:c.soff[i+1]]
}

// growArena grows sb, a new builder, to hold size bytes, the whole
// payload of the plain string column name. Offsets are uint32, 4 bytes a
// cell where a string header costs 16, so a column of more than 4 GiB
// panics here rather than wrap an offset. Callers keep the builder in a
// local variable: on the stack, filling it writes no pointer to the heap,
// so a fill that overlaps the collector's mark phase pays no write
// barrier per cell.
func growArena(sb *strings.Builder, name string, size int) {
	if size > math.MaxUint32 {
		panic(fmt.Sprintf("frame: plain string column %q holds %d bytes, more than uint32 offsets reach", name, size))
	}
	sb.Grow(size)
}

// appendStr writes s, the next cell of a plain string column, into its
// arena and appends the cell's end offset.
func appendStr(sb *strings.Builder, off []uint32, s string) []uint32 {
	sb.WriteString(s)
	return append(off, uint32(sb.Len()))
}

// SpanEndAt returns the end of cell i of a span-kinded column.
func (c *Column) SpanEndAt(i int) int64 { return c.ends[i] }

// Value boxes cell i back into a value.Value. Absent cells box to Null,
// exactly like value.Row.Get on a row missing the column.
func (c *Column) Value(i int) value.Value {
	if !c.Present(i) {
		return value.Null()
	}
	switch c.kind {
	case value.KindBool:
		return value.Bool(c.ints[i] != 0)
	case value.KindInt:
		return value.Int(c.ints[i])
	case value.KindFloat:
		return value.Float(c.flts[i])
	case value.KindString:
		return value.Str(c.StrAt(i))
	case value.KindTime:
		return value.TimeNanos(c.ints[i])
	case value.KindSpan:
		return value.Span(c.ints[i], c.ends[i])
	default:
		return c.boxd[i]
	}
}

// Frame is an immutable batch of n rows stored column-wise. Columns are
// kept sorted by name so batch layout (and every ordered emission derived
// from it) is canonical regardless of source-map iteration order.
type Frame struct {
	cols  []Column
	index map[string]int
	n     int
}

func newFrame(cols []Column, n int) *Frame {
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	index := make(map[string]int, len(cols))
	for i := range cols {
		index[cols[i].name] = i
	}
	return &Frame{cols: cols, index: index, n: n}
}

// Empty returns a frame with no rows and no columns.
func Empty() *Frame { return newFrame(nil, 0) }

// New builds a frame from fully constructed columns, which must all have
// equal length. It panics on ragged input — kernel bugs, not data errors.
func New(cols ...Column) *Frame {
	n := 0
	if len(cols) > 0 {
		n = cols[0].n
	}
	for i := range cols {
		if cols[i].n != n {
			panic("frame.New: ragged columns")
		}
	}
	own := make([]Column, len(cols))
	copy(own, cols)
	return newFrame(own, n)
}

// NumRows returns the number of rows in the batch.
func (f *Frame) NumRows() int { return f.n }

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Columns returns the column names in canonical (sorted) order.
func (f *Frame) Columns() []string {
	out := make([]string, len(f.cols))
	for i := range f.cols {
		out[i] = f.cols[i].name
	}
	return out
}

// Col returns the named column, or nil if the frame has no such column.
func (f *Frame) Col(name string) *Column {
	if i, ok := f.index[name]; ok {
		return &f.cols[i]
	}
	return nil
}

// ColIndex returns the position of the named column, or -1.
func (f *Frame) ColIndex(name string) int {
	if i, ok := f.index[name]; ok {
		return i
	}
	return -1
}

// ColAt returns the column at position i in canonical order.
func (f *Frame) ColAt(i int) *Column { return &f.cols[i] }

// RowAt boxes row i back into a value.Row. Absent cells are omitted from
// the map; present explicit nulls are kept, so FromRows(rows) followed by
// RowAt reproduces each source row exactly (value.Row.Equal).
func (f *Frame) RowAt(i int) value.Row {
	r := make(value.Row, len(f.cols))
	for j := range f.cols {
		c := &f.cols[j]
		if c.Present(i) {
			r[c.name] = c.Value(i)
		}
	}
	return r
}

// ToRows converts the whole batch back to boundary-format rows.
func (f *Frame) ToRows() []value.Row {
	rows := make([]value.Row, f.n)
	for i := range rows {
		rows[i] = f.RowAt(i)
	}
	return rows
}

// FromRows builds a frame from boundary-format rows. Columns whose present
// cells share one scalar kind get dense typed storage; columns with mixed
// kinds, list values, or explicit nulls use boxed storage; string columns
// with few distinct values are dictionary-encoded. The rows are not
// retained.
func FromRows(rows []value.Row) *Frame { return fromRows(rows, nil) }

// fromRows is FromRows, with string columns coded against p's
// dictionaries when p is not nil (Pivot.FromRows).
func fromRows(rows []value.Row, p *Pivot) *Frame {
	// One sweep discovers the column set and each column's storage kind.
	scans := map[string]*kindScan{}
	for _, r := range rows {
		for name, v := range r {
			ks := scans[name]
			if ks == nil {
				ks = &kindScan{}
				scans[name] = ks
			}
			ks.add(v)
		}
	}
	names := make([]string, 0, len(scans))
	for name := range scans {
		names = append(names, name)
	}
	sort.Strings(names)
	cols := make([]Column, len(names))
	for j, name := range names {
		cols[j] = freeze(name, len(rows), scans[name], p, func(i int) (value.Value, bool) {
			v, ok := rows[i][name]
			return v, ok
		})
	}
	return newFrame(cols, len(rows))
}

// kindScan discovers a column's storage kind from the kinds of its present
// cells, one add per cell, and counts their string bytes: the exact size
// of the arena the column needs if it is stored as plain strings.
type kindScan struct {
	kind     value.Kind
	seen     bool
	boxed    bool
	strBytes int
}

func (ks *kindScan) add(v value.Value) {
	k := v.Kind()
	ks.strBytes += len(v.StrVal())
	switch {
	case k == value.KindNull || k == value.KindList:
		ks.boxed = true
	case !ks.seen:
		ks.kind, ks.seen = k, true
	case ks.kind != k:
		ks.boxed = true
	}
}

// storage is the kind the scanned cells are stored as: the one scalar kind
// they share, or value.KindNull (boxed) when they hold mixed kinds, lists
// or explicit nulls, or when no cell is present.
func (ks *kindScan) storage() value.Kind {
	if ks.boxed || !ks.seen {
		return value.KindNull
	}
	return ks.kind
}

// freeze is the one place cells become a typed Column: cell returns cell
// i's value and presence, and ks has scanned the present cells (their
// storage kind and string bytes). A string column is coded against p's
// dictionary for it when p is not nil, else against a fresh one under the
// dictLimit gate; it falls back to plain strings at the first string its
// coder cannot take. Plain strings go straight into an arena of exactly
// ks.strBytes. The presence bitmap stays nil when every cell is present.
func freeze(name string, n int, ks *kindScan, p *Pivot, cell func(i int) (value.Value, bool)) Column {
	kind := ks.storage()
	c := Column{name: name, kind: kind, n: n}
	var sc *strCoder
	var sb strings.Builder // the arena of a plain string column
	plain := false
	switch kind {
	case value.KindNull:
		c.boxd = make([]value.Value, n)
	case value.KindFloat:
		c.flts = make([]float64, n)
	case value.KindString:
		if p != nil {
			sc = p.coders[name]
		} else {
			sc = newStrCoder(n, func(i int) (string, bool) {
				v, ok := cell(i)
				return v.StrVal(), ok
			}, true)
		}
		if sc != nil {
			c.dict, c.codes = sc.d, make([]uint32, n)
		} else {
			plain = true
			growArena(&sb, name, ks.strBytes)
			c.soff = make([]uint32, 1, n+1)
		}
	case value.KindSpan:
		c.ints = make([]int64, n)
		c.ends = make([]int64, n)
	default: // bool, int, time
		c.ints = make([]int64, n)
	}
	absent := false
	for i := 0; i < n; i++ {
		v, ok := cell(i)
		if !ok {
			if !absent {
				absent = true
				c.pres = newBits(n)
				for k := 0; k < i; k++ {
					setBit(c.pres, k)
				}
			}
			if plain {
				c.soff = append(c.soff, c.soff[i])
			}
			continue
		}
		if absent {
			setBit(c.pres, i)
		}
		switch kind {
		case value.KindNull:
			c.boxd[i] = v
		case value.KindBool:
			if v.BoolVal() {
				c.ints[i] = 1
			}
		case value.KindInt:
			c.ints[i] = v.IntVal()
		case value.KindFloat:
			c.flts[i] = v.FloatVal()
		case value.KindString:
			if sc != nil {
				if code, ok := sc.code(v.StrVal()); ok {
					c.codes[i] = code
					break
				}
				c.soff = sc.plain(&c, i, &sb, ks.strBytes)
				sc, c.dict, c.codes, plain = nil, nil, nil, true
			}
			c.soff = appendStr(&sb, c.soff, v.StrVal())
		case value.KindTime:
			c.ints[i] = v.TimeNanosVal()
		case value.KindSpan:
			c.ints[i], c.ends[i] = v.SpanBounds()
		}
	}
	if plain {
		c.sdat = sb.String()
	}
	return c
}

// Select returns a frame holding only the named columns (those the frame
// actually has), sharing their storage. Row count is unchanged.
func (f *Frame) Select(names []string) *Frame {
	cols := make([]Column, 0, len(names))
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		if i, ok := f.index[name]; ok {
			cols = append(cols, f.cols[i])
		}
	}
	return newFrame(cols, f.n)
}

// Drop returns a frame without the named columns, sharing the remaining
// columns' storage.
func (f *Frame) Drop(names ...string) *Frame {
	drop := map[string]bool{}
	for _, name := range names {
		drop[name] = true
	}
	cols := make([]Column, 0, len(f.cols))
	for i := range f.cols {
		if !drop[f.cols[i].name] {
			cols = append(cols, f.cols[i])
		}
	}
	return newFrame(cols, f.n)
}

// With returns a frame with col added (or replacing a same-named column).
// The column length must match the frame's row count.
func (f *Frame) With(col Column) *Frame {
	if col.n != f.n {
		panic("frame.With: column length mismatch")
	}
	cols := make([]Column, 0, len(f.cols)+1)
	replaced := false
	for i := range f.cols {
		if f.cols[i].name == col.name {
			cols = append(cols, col)
			replaced = true
			continue
		}
		cols = append(cols, f.cols[i])
	}
	if !replaced {
		cols = append(cols, col)
	}
	return newFrame(cols, f.n)
}

// Rename returns a frame with column from relabeled to, sharing its
// payload and presence bits; a column already named to is replaced. A
// frame without from is returned as is.
func (f *Frame) Rename(from, to string) *Frame {
	i, ok := f.index[from]
	if !ok || from == to {
		return f
	}
	c := f.cols[i]
	c.name = to
	return f.Drop(from).With(c)
}

// Gather returns a new frame holding the rows idx (in that order). Indices
// may repeat; each must be in range.
func (f *Frame) Gather(idx []int32) *Frame {
	cols := make([]Column, len(f.cols))
	for j := range f.cols {
		cols[j] = f.cols[j].gather(idx)
	}
	return newFrame(cols, len(idx))
}

func (c *Column) gather(idx []int32) Column {
	out := Column{name: c.name, kind: c.kind, n: len(idx)}
	switch {
	case c.kind == value.KindNull:
		out.boxd = make([]value.Value, len(idx))
		for i, s := range idx {
			out.boxd[i] = c.boxd[s]
		}
	case c.kind == value.KindFloat:
		out.flts = make([]float64, len(idx))
		for i, s := range idx {
			out.flts[i] = c.flts[s]
		}
	case c.dict != nil:
		out.dict = c.dict
		out.codes = make([]uint32, len(idx))
		for i, s := range idx {
			out.codes[i] = c.codes[s]
		}
	case c.kind == value.KindString:
		size := 0
		for _, s := range idx {
			size += int(c.soff[s+1] - c.soff[s])
		}
		var sb strings.Builder
		growArena(&sb, c.name, size)
		out.soff = make([]uint32, 1, len(idx)+1)
		for _, s := range idx {
			out.soff = appendStr(&sb, out.soff, c.sdat[c.soff[s]:c.soff[s+1]])
		}
		out.sdat = sb.String()
	case c.kind == value.KindSpan:
		out.ints = make([]int64, len(idx))
		out.ends = make([]int64, len(idx))
		for i, s := range idx {
			out.ints[i] = c.ints[s]
			out.ends[i] = c.ends[s]
		}
	default: // bool, int, time
		out.ints = make([]int64, len(idx))
		for i, s := range idx {
			out.ints[i] = c.ints[s]
		}
	}
	if c.pres != nil {
		bits := newBits(len(idx))
		absent := false
		for i, s := range idx {
			if c.Present(int(s)) {
				setBit(bits, i)
			} else {
				absent = true
			}
		}
		if absent {
			out.pres = bits
		}
	}
	return out
}

// FilterMask returns a new frame holding the rows where keep[i] is true,
// in order. len(keep) must equal NumRows.
func (f *Frame) FilterMask(keep []bool) *Frame {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, k := range keep {
		if k {
			idx = append(idx, int32(i))
		}
	}
	return f.Gather(idx)
}

// ConcatGather concatenates selected rows of frames vertically into one
// batch: frame i contributes its rows sels[i] in that order (all of its
// rows when sels is nil or sels[i] is nil), each copied once — the batch
// concatenating each frame's Gather would give, without the intermediate
// frames. The column set is the union over the frames that contribute
// rows; rows from a frame lacking a column are absent there. Columns
// typed identically everywhere stay typed; disagreeing columns fall back
// to boxed storage. A string column dictionary-encoded in every
// contributing frame stays encoded: its codes are copied when the frames
// share one dictionary, and otherwise remapped into the union of theirs,
// once per distinct dictionary.
func ConcatGather(frames []*Frame, sels [][]int32) *Frame {
	rowsOf := func(i int) int {
		if sels != nil && sels[i] != nil {
			return len(sels[i])
		}
		return frames[i].n
	}
	n := 0
	type colInfo struct {
		kind  value.Kind
		seen  bool
		boxed bool
		dict  *dict // the first contributing string column's dictionary
		plain bool  // some contributing string column is not encoded
		union bool  // contributing string columns use different dictionaries
	}
	infos := map[string]*colInfo{}
	for i, f := range frames {
		m := rowsOf(i)
		n += m
		if m == 0 {
			continue
		}
		for j := range f.cols {
			c := &f.cols[j]
			ci := infos[c.name]
			if ci == nil {
				ci = &colInfo{}
				infos[c.name] = ci
			}
			switch {
			case c.kind == value.KindNull:
				ci.boxed = true
			case !ci.seen:
				ci.kind, ci.seen = c.kind, true
			case ci.kind != c.kind:
				ci.boxed = true
			}
			switch {
			case c.kind != value.KindString:
			case c.dict == nil:
				ci.plain = true
			case ci.dict == nil:
				ci.dict = c.dict
			case ci.dict != c.dict:
				ci.union = true
			}
		}
	}
	names := make([]string, 0, len(infos))
	for name := range infos {
		names = append(names, name)
	}
	sort.Strings(names)

	selOf := func(i int) []int32 {
		if sels != nil {
			return sels[i]
		}
		return nil
	}

	cols := make([]Column, len(names))
	for j, name := range names {
		ci := infos[name]
		out := Column{name: name, kind: ci.kind, n: n}
		var u *dictUnion
		var sb strings.Builder // the arena of a plain string column
		plain := false
		if ci.boxed || !ci.seen {
			out.kind = value.KindNull
			out.boxd = make([]value.Value, 0, n)
		} else {
			switch {
			case ci.kind == value.KindFloat:
				out.flts = make([]float64, 0, n)
			case ci.kind == value.KindString && !ci.plain:
				out.dict = ci.dict
				out.codes = make([]uint32, 0, n)
				if ci.union {
					u = newDictUnion()
				}
			case ci.kind == value.KindString:
				size := 0
				for fi, f := range frames {
					if c := f.Col(name); c != nil {
						size += c.strBytes(selOf(fi), rowsOf(fi))
					}
				}
				plain = true
				growArena(&sb, name, size)
				out.soff = make([]uint32, 1, n+1)
			case ci.kind == value.KindSpan:
				out.ints = make([]int64, 0, n)
				out.ends = make([]int64, 0, n)
			default:
				out.ints = make([]int64, 0, n)
			}
		}
		bits := newBits(n)
		absent := false
		pos := 0
		for fi, f := range frames {
			m := rowsOf(fi)
			if m == 0 {
				continue
			}
			c := f.Col(name)
			if c == nil {
				absent = true
				out = appendZeros(out, m)
				pos += m
				continue
			}
			sel := selOf(fi)
			if u != nil {
				u.use(c.dict)
			}
			for k := 0; k < m; k++ {
				i := k
				if sel != nil {
					i = int(sel[k])
				}
				if c.Present(i) {
					setBit(bits, pos)
				} else {
					absent = true
				}
				pos++
				switch {
				case out.kind == value.KindNull:
					if c.Present(i) {
						out.boxd = append(out.boxd, c.Value(i))
					} else {
						out.boxd = append(out.boxd, value.Value{})
					}
				case out.kind == value.KindFloat:
					out.flts = append(out.flts, c.flts[i])
				case u != nil:
					code := uint32(0)
					if c.Present(i) {
						code = u.code(c.codes[i])
					}
					out.codes = append(out.codes, code)
				case out.dict != nil:
					out.codes = append(out.codes, c.codes[i])
				case out.kind == value.KindString:
					s := ""
					if c.Present(i) {
						s = c.StrAt(i)
					}
					out.soff = appendStr(&sb, out.soff, s)
				case out.kind == value.KindSpan:
					out.ints = append(out.ints, c.ints[i])
					out.ends = append(out.ends, c.ends[i])
				default:
					out.ints = append(out.ints, c.ints[i])
				}
			}
		}
		if u != nil {
			out.dict = u.finish()
		}
		if plain {
			out.sdat = sb.String()
		}
		if absent {
			out.pres = bits
		}
		cols[j] = out
	}
	return newFrame(cols, n)
}

// strBytes is the total length of the present strings among cells sel of
// a string column, or among its first m cells when sel is nil.
func (c *Column) strBytes(sel []int32, m int) int {
	size := 0
	for k := 0; k < m; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if c.Present(i) {
			size += len(c.StrAt(i))
		}
	}
	return size
}

// appendZeros extends a column's storage by m absent cells.
func appendZeros(out Column, m int) Column {
	if out.kind == value.KindNull {
		for k := 0; k < m; k++ {
			out.boxd = append(out.boxd, value.Value{})
		}
		return out
	}
	switch {
	case out.kind == value.KindFloat:
		out.flts = append(out.flts, make([]float64, m)...)
	case out.codes != nil:
		out.codes = append(out.codes, make([]uint32, m)...)
	case out.kind == value.KindString:
		for last := out.soff[len(out.soff)-1]; m > 0; m-- {
			out.soff = append(out.soff, last)
		}
	case out.kind == value.KindSpan:
		out.ints = append(out.ints, make([]int64, m)...)
		out.ends = append(out.ends, make([]int64, m)...)
	default:
		out.ints = append(out.ints, make([]int64, m)...)
	}
	return out
}

// Merge combines two equal-length frames column-wise, exactly as
// value.Row.Merge combines maps: the result has the union of the columns,
// and where both frames have a column, b's cell wins wherever b has the
// cell at all (explicit nulls included), falling back to a's. Disjoint
// columns share storage (dictionaries included).
func Merge(a, b *Frame) *Frame {
	if a.n != b.n {
		panic("frame.Merge: row count mismatch")
	}
	cols := make([]Column, 0, len(a.cols)+len(b.cols))
	// One builder serves every coalesced column: Finish copies the cells
	// out, so the vals/set scratch is reusable across iterations.
	var bld *Builder
	for i := range a.cols {
		ac := &a.cols[i]
		bc := b.Col(ac.name)
		switch {
		case bc == nil:
			cols = append(cols, *ac)
		case bc.AllPresent():
			cols = append(cols, *bc)
		default:
			if bld == nil {
				bld = NewBuilder(ac.name, a.n)
			} else {
				// Reset only reallocates past the high-water mark.
				bld.Reset(ac.name, a.n)
			}
			for r := 0; r < a.n; r++ {
				if bc.Present(r) {
					bld.Set(r, bc.Value(r))
				} else if ac.Present(r) {
					bld.Set(r, ac.Value(r))
				}
			}
			cols = append(cols, bld.Finish())
		}
	}
	for i := range b.cols {
		if a.Col(b.cols[i].name) == nil {
			cols = append(cols, b.cols[i])
		}
	}
	return newFrame(cols, a.n)
}

func newBits(n int) []uint64 { return make([]uint64, (n+63)/64) }

func setBit(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }
