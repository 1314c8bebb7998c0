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

// ConcatGather gathers rows of a vertical concatenation without building
// it: frame i contributes its rows sels[i] in that order (all of its rows
// when sels is nil or sels[i] is nil), and output row k is row idx[k] of
// the concatenation (every row in order when idx is nil; indices may
// repeat and must be in range). Each output cell is copied once, straight
// from the frame it lives in.
//
// Everything but the cells is decided over the frames that contribute
// rows, in frame order, whatever idx picks, so the result equals
// ConcatGather(frames, sels, nil).Gather(idx) in representation as well as
// in cells. The column set is the union over the contributing frames; rows
// from a frame lacking a column are absent there. Columns typed
// identically everywhere stay typed; disagreeing columns fall back to
// boxed storage. A string column dictionary-encoded in every contributing
// frame stays encoded: its codes are copied when the frames share one
// dictionary, and otherwise remapped into the union of theirs, whose
// entries follow first use over the whole concatenation. A column has a
// presence bitmap only when an output cell is absent.
func ConcatGather(frames []*Frame, sels [][]int32, idx []int32) *Frame {
	m := newRowMap(frames, sels, idx)
	type colInfo struct {
		kind  value.Kind
		seen  bool
		boxed bool
		dict  *dict // the first contributing string column's dictionary
		plain bool  // some contributing string column is not encoded
		union bool  // contributing string columns use different dictionaries
	}
	infos := map[string]*colInfo{}
	for p, f := range frames {
		if m.rows(p) == 0 {
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

	n := m.len()
	cols := make([]Column, len(names))
	pcs := make([]*Column, len(frames)) // frame p's column of the current name, nil where it lacks one
	for j, name := range names {
		ci := infos[name]
		bits := false // some contributing frame lacks the column or has an absent cell in it
		for p, f := range frames {
			pcs[p] = f.Col(name)
			bits = bits || m.rows(p) > 0 && (pcs[p] == nil || pcs[p].pres != nil)
		}
		out := Column{name: name, kind: ci.kind, n: n}
		switch {
		case ci.boxed || !ci.seen:
			out.kind = value.KindNull
			out.boxd = make([]value.Value, n)
			for k := m.reset(); k < n; k++ {
				p, i := m.at(k)
				if c := pcs[p]; c != nil && c.Present(i) {
					out.boxd[k] = c.Value(i)
				}
			}
		case ci.kind == value.KindFloat:
			out.flts = make([]float64, n)
			for k := m.reset(); k < n; k++ {
				if p, i := m.at(k); pcs[p] != nil {
					out.flts[k] = pcs[p].flts[i]
				}
			}
		case ci.kind == value.KindString && ci.plain:
			out.sdat, out.soff = m.plainStrings(name, pcs)
		case ci.kind == value.KindString && ci.union:
			out.dict, out.codes = m.unionCodes(pcs)
		case ci.kind == value.KindString:
			out.dict, out.codes = ci.dict, make([]uint32, n)
			for k := m.reset(); k < n; k++ {
				if p, i := m.at(k); pcs[p] != nil {
					out.codes[k] = pcs[p].codes[i]
				}
			}
		case ci.kind == value.KindSpan:
			out.ints, out.ends = make([]int64, n), make([]int64, n)
			for k := m.reset(); k < n; k++ {
				if p, i := m.at(k); pcs[p] != nil {
					out.ints[k], out.ends[k] = pcs[p].ints[i], pcs[p].ends[i]
				}
			}
		default: // bool, int, time
			out.ints = make([]int64, n)
			for k := m.reset(); k < n; k++ {
				if p, i := m.at(k); pcs[p] != nil {
					out.ints[k] = pcs[p].ints[i]
				}
			}
		}
		if bits {
			out.pres = m.presence(pcs)
		}
		cols[j] = out
	}
	return newFrame(cols, n)
}

// rowMap resolves the output rows of a ConcatGather to the frame each one
// lives in and its row there. With an idx it lists every row of the
// concatenation once, in order, and an output row reads its entry; without
// one it walks the frames in step with the rows, so the concatenation
// costs no vector of its own.
type rowMap struct {
	sels  [][]int32 // frame p's selection; nil selects all its rows
	start []int     // frame p holds rows start[p]:start[p+1] of the concatenation
	idx   []int32   // output row k is row idx[k] of the concatenation; nil: row k
	rowAt []uint64  // with an idx: row g of the concatenation is row uint32(rowAt[g]) of frame rowAt[g]>>32
	p     int       // without: the frame of the row at resolves next
}

func newRowMap(frames []*Frame, sels [][]int32, idx []int32) *rowMap {
	m := &rowMap{sels: make([][]int32, len(frames)), start: make([]int, len(frames)+1), idx: idx}
	for p, f := range frames {
		rows := f.n
		if sels != nil && sels[p] != nil {
			m.sels[p], rows = sels[p], len(sels[p])
		}
		m.start[p+1] = m.start[p] + rows
	}
	if idx == nil {
		return m
	}
	// One sequential pass: cheaper than searching the frame of each
	// output row, which a join's index visits in no particular order.
	m.rowAt = make([]uint64, m.start[len(frames)])
	for p := range frames {
		for t, g := 0, m.start[p]; g < m.start[p+1]; t, g = t+1, g+1 {
			i := t
			if s := m.sels[p]; s != nil {
				i = int(s[t])
			}
			m.rowAt[g] = uint64(p)<<32 | uint64(uint32(i))
		}
	}
	return m
}

// rows is the number of rows frame p contributes.
func (m *rowMap) rows(p int) int { return m.start[p+1] - m.start[p] }

// len is the number of output rows.
func (m *rowMap) len() int {
	if m.idx != nil {
		return len(m.idx)
	}
	return m.start[len(m.start)-1]
}

// reset rewinds the walk to output row 0, which it returns.
func (m *rowMap) reset() int {
	m.p = 0
	return 0
}

// at returns the frame and row of output row k. A walk (no idx) must visit
// the rows in ascending order after a reset.
func (m *rowMap) at(k int) (p, i int) {
	if m.idx != nil {
		e := m.rowAt[m.idx[k]]
		return int(e >> 32), int(uint32(e))
	}
	for k >= m.start[m.p+1] {
		m.p++
	}
	i = k - m.start[m.p]
	if s := m.sels[m.p]; s != nil {
		i = int(s[i])
	}
	return m.p, i
}

// presence is the presence bitmap of the output column read from pcs.
// It is nil when every output cell is present.
func (m *rowMap) presence(pcs []*Column) []uint64 {
	n := m.len()
	bits := newBits(n)
	absent := false
	for k := m.reset(); k < n; k++ {
		if p, i := m.at(k); pcs[p] != nil && pcs[p].Present(i) {
			setBit(bits, k)
		} else {
			absent = true
		}
	}
	if !absent {
		return nil
	}
	return bits
}

// plainStrings builds the arena of a plain output string column read from
// pcs, some of which may be coded. A plain source cell's length is its
// offset difference, an absent cell's being 0, so one pass writes the
// output offsets and a second copies the bytes.
func (m *rowMap) plainStrings(name string, pcs []*Column) (string, []uint32) {
	n := m.len()
	off := make([]uint32, n+1)
	size := 0
	for k := m.reset(); k < n; k++ {
		p, i := m.at(k)
		switch c := pcs[p]; {
		case c == nil:
		case c.dict == nil:
			size += int(c.soff[i+1] - c.soff[i])
		case c.Present(i):
			size += len(c.dict.vals[c.codes[i]])
		}
		off[k+1] = uint32(size)
	}
	var sb strings.Builder
	growArena(&sb, name, size)
	for k := m.reset(); k < n; k++ {
		p, i := m.at(k)
		switch c := pcs[p]; {
		case c == nil:
		case c.dict == nil:
			sb.WriteString(c.sdat[c.soff[i]:c.soff[i+1]])
		case c.Present(i):
			sb.WriteString(c.dict.vals[c.codes[i]])
		}
	}
	return sb.String(), off
}

// unionCodes codes an output string column read from pcs, coded in
// different dictionaries, into their union. The union takes its entries
// in first use over the whole concatenation, each input dictionary
// remapped once; the output cells then read their codes through the
// remaps. An absent cell gets code 0.
func (m *rowMap) unionCodes(pcs []*Column) (*dict, []uint32) {
	u := newDictUnion()
	remaps := make([][]uint32, len(pcs))
	for p, c := range pcs {
		if c == nil || m.rows(p) == 0 {
			continue
		}
		u.use(c.dict)
		for t := 0; t < m.rows(p); t++ {
			i := t
			if s := m.sels[p]; s != nil {
				i = int(s[t])
			}
			if c.Present(i) {
				u.code(c.codes[i])
			}
		}
		remaps[p] = u.remap
	}
	n := m.len()
	codes := make([]uint32, n)
	for k := m.reset(); k < n; k++ {
		if p, i := m.at(k); pcs[p] != nil && pcs[p].Present(i) {
			codes[k] = remaps[p][pcs[p].codes[i]] - 1
		}
	}
	return u.finish(), codes
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
