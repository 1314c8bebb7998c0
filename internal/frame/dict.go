package frame

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"scrubjay/internal/value"
)

// Dictionary-encoded string columns. HPC keys — node, rack, job, aisle —
// are categorical: a few distinct strings repeated over many rows. Such a
// column stores one uint32 code per cell plus a shared dictionary instead
// of one string header per cell, so gathers, concatenations and the wire
// move 4 bytes a cell, and the decoder allocates each distinct string once
// per chunk instead of once per cell. Kind stays value.KindString and every
// accessor returns dict.vals[code], so the encoding is invisible outside
// this package and the shuffle codec.
//
// A dictionary is immutable once built and shared by every column that
// indexes it. Codes carry equality only: two cells of columns sharing one
// dictionary are equal exactly when their codes are. Codes carry no order,
// so every ordering (sorts, range filters, the interpolation join's
// residual keys) reads the strings.
//
// Dictionaries are born in two places, both under maxDictNDVPerRow: the
// freezer every column built from cells passes through (FromRows and
// Builder.Finish code each column alone; a Pivot codes every partition of
// one row set against one dictionary per column, built over all the rows
// before the split), and the shuffle decoder, once per chunk column.

// maxDictNDVPerRow is the largest ratio of distinct strings to rows at
// which a string column is dictionary-encoded. A code costs 4 bytes where
// a string header costs 16, and each entry adds one header, so encoding
// pays while ndv/rows stays under 3/4; at 1/2 it saves at least a third.
// Unique keys (the natural join's node ids) stay plain.
const maxDictNDVPerRow = 0.5

// maxDictNDV is the most distinct strings an n-row column may hold and be
// dictionary-encoded.
func maxDictNDV(n int) int { return int(float64(n) * maxDictNDVPerRow) }

// sampleRepeats reports whether a sample of an n-cell column's present
// cells (cell returns cell i's string and presence) holds some string
// twice. It rules out unique keys without the full count, which would
// insert maxDictNDV(n) strings before giving up. The sample takes one cell
// at a pseudo-random offset in each of ⌈√(16·maxDictNDVPerRow·n)⌉ equal
// blocks, plus that cell's right-hand neighbour. Scattered repeats — at
// most maxDictNDV(n) distinct strings in any order, periodic layouts such
// as node names cycling through every timestamp included — give the
// block cells at least 8 expected repeats, so a repeat-free sample has
// probability below e⁻⁸. Clustered repeats — a column sorted or grouped
// by its key, so that runs of two or more equal strings cover it — show
// as a block cell equal to its neighbour, which each block cell misses
// with probability at most one half. When the sample covers every cell
// (n ≤ 32) the answer is exact.
func sampleRepeats(n int, cell func(i int) (string, bool)) bool {
	s := sampleSize(n)
	seen := map[string]bool{}
	for k := 0; k < s; k++ {
		i := sampleAt(n, s, k)
		str, ok := cell(i)
		if !ok {
			continue
		}
		if seen[str] {
			return true
		}
		seen[str] = true
		if i+1 < n {
			if next, ok := cell(i + 1); ok && next == str {
				return true
			}
		}
	}
	return false
}

// sampleSize is the number of blocks sampleRepeats splits n cells into.
func sampleSize(n int) int {
	return min(n, int(math.Ceil(math.Sqrt(16*maxDictNDVPerRow*float64(n)))))
}

// sampleAt is the cell sampleRepeats reads in block k of s over n cells.
func sampleAt(n, s, k int) int {
	lo, hi := k*n/s, (k+1)*n/s
	return lo + int((uint64(k+1)*0x9E3779B97F4A7C15>>33)%uint64(hi-lo))
}

// dict is an immutable string dictionary: cell i of a column with codes
// reads vals[codes[i]]. Its entries are distinct, so two cells coded in
// one dictionary are equal exactly when their codes are. It is never
// empty, so code 0 is always valid — absent cells store it.
type dict struct{ vals []string }

// DictEncoded reports whether the column stores its strings as codes into
// a shared dictionary. The cells read the same either way; tests and
// diagnostics use it to check where dictionaries survive.
func (c *Column) DictEncoded() bool { return c.dict != nil }

// strCoder builds one column's dictionary as the column's strings are met,
// until they turn out to hold more distinct strings than limit. An owning
// coder copies each entry it adds: its dictionary outlives the cells it is
// built from, which may be substrings of another column's arena, and an
// entry must not pin that arena.
type strCoder struct {
	d     *dict
	index map[string]uint32
	limit int
	own   bool
}

// dictLimit returns the most distinct strings an n-cell column (cell
// returns cell i's string and presence) may be coded with: maxDictNDV(n),
// or 0 when no n-cell column qualifies or a sample of its cells shows no
// repeat (sampleRepeats).
func dictLimit(n int, cell func(i int) (string, bool)) int {
	limit := maxDictNDV(n)
	if limit < 1 || !sampleRepeats(n, cell) {
		return 0
	}
	return limit
}

// newStrCoder returns a coder for an n-cell column, or nil when dictLimit
// rules the column out; own says whether it copies its entries.
func newStrCoder(n int, cell func(i int) (string, bool), own bool) *strCoder {
	limit := dictLimit(n, cell)
	if limit == 0 {
		return nil
	}
	return &strCoder{d: &dict{}, index: map[string]uint32{}, limit: limit, own: own}
}

// code returns s's code, adding s to the dictionary if it is new. It
// reports false, adding nothing, when s would be one distinct string too
// many.
func (sc *strCoder) code(s string) (uint32, bool) {
	code, ok := sc.index[s]
	if !ok {
		if len(sc.d.vals) == sc.limit {
			return 0, false
		}
		if sc.own {
			s = strings.Clone(s)
		}
		code = uint32(len(sc.d.vals))
		sc.index[s] = code
		sc.d.vals = append(sc.d.vals, s)
	}
	return code, true
}

// plain grows sb, a new builder, to size bytes, writes the cells of c
// that sc coded before cell upto into it and returns their offsets, with
// room for all c.n.
func (sc *strCoder) plain(c *Column, upto int, sb *strings.Builder, size int) []uint32 {
	growArena(sb, c.name, size)
	off := make([]uint32, 1, c.n+1)
	for i := 0; i < upto; i++ {
		s := ""
		if c.Present(i) {
			s = sc.d.vals[c.codes[i]]
		}
		off = appendStr(sb, off, s)
	}
	return off
}

// Pivot pivots the partitions of one row set into frames as FromRows
// does, except that each string column is coded against one dictionary
// built over all the rows before the split, under the same sample and
// threshold as FromRows. Every frame coding the column then shares that
// dictionary, so in-process exchanges concatenate the partitions' codes as
// they are. A Pivot is read-only once built and safe for concurrent use.
type Pivot struct{ coders map[string]*strCoder }

// NewPivot builds the dictionaries of rows' string columns: one for each
// column whose present cells are all strings, show a repeat in the sample
// and stay within maxDictNDV(len(rows)) distinct strings. Only columns
// holding a string in a row the sample reads first are candidates — the
// sample finds no repeat in any other — so no pass over all the rows is
// spent on columns that stay plain. The rows are not retained.
func NewPivot(rows []value.Row) *Pivot {
	n := len(rows)
	candidates := map[string]bool{}
	for s, k := sampleSize(n), 0; k < s; k++ {
		for name, v := range rows[sampleAt(n, s, k)] {
			if v.Kind() == value.KindString {
				candidates[name] = true
			}
		}
	}
	p := &Pivot{coders: map[string]*strCoder{}}
	for name := range candidates {
		sc := newStrCoder(n, func(i int) (string, bool) {
			v, ok := rows[i][name]
			return v.StrVal(), ok
		}, true)
		if sc == nil {
			continue
		}
		// One read per row, each a likely cache miss, is the cost here, so
		// the rows are split over the processors, each listing its chunk's
		// distinct strings; the lists merge in chunk order, so codes still
		// follow first use.
		lists := make([][]string, min(runtime.GOMAXPROCS(0), n))
		var wg sync.WaitGroup
		for c := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lists[c] = distinctStrings(rows[c*n/len(lists):(c+1)*n/len(lists)], name, sc.limit)
			}()
		}
		wg.Wait()
		if sc.addAll(lists) {
			sc.limit = len(sc.d.vals) // full: partitions only look strings up
			p.coders[name] = sc
		}
	}
	return p
}

// distinctStrings lists column name's distinct strings in rows in
// first-use order, or returns nil when some present cell is not a string
// or they are more than limit.
func distinctStrings(rows []value.Row, name string, limit int) []string {
	list := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		v, ok := r[name]
		if !ok {
			continue
		}
		if v.Kind() != value.KindString {
			return nil
		}
		if s := v.StrVal(); !seen[s] {
			if len(list) == limit {
				return nil
			}
			seen[s] = true
			list = append(list, s)
		}
	}
	return list
}

// addAll adds the strings of lists to the dictionary in order. It reports
// false when some list is nil or they hold more distinct strings than the
// limit.
func (sc *strCoder) addAll(lists [][]string) bool {
	for _, list := range lists {
		if list == nil {
			return false
		}
		for _, s := range list {
			if _, ok := sc.code(s); !ok {
				return false
			}
		}
	}
	return true
}

// FromRows pivots rows, some of the rows p was built from, into a frame
// whose string columns code against p's dictionaries. A column p holds no
// dictionary for stays plain, and so does one meeting a string p's
// dictionary lacks.
func (p *Pivot) FromRows(rows []value.Row) *Frame { return fromRows(rows, p) }

// DictCodes returns the cells sel of a string column (every cell when sel
// is nil), in that order, as a dictionary of their own: entries lists the
// distinct present strings in first-use order and codes[k] indexes the
// k-th cell's string (0 for an absent cell). The result depends only on
// the cells, never on how the column stores them, and equals DictCodes(nil)
// on the column Gather(sel) would build, so an encoder built on it is
// canonical and need not gather first. ok is false for any other kind, and
// when the cells hold no present one, a repeat-free sample
// (sampleRepeats) or more distinct strings than maxDictNDV allows. The
// slices are fresh.
func (c *Column) DictCodes(sel []int32) (entries []string, codes []uint32, ok bool) {
	if c.kind != value.KindString {
		return nil, nil, false
	}
	n, cell := c.n, c.strCell
	if sel != nil {
		n, cell = len(sel), func(k int) (string, bool) { return c.strCell(int(sel[k])) }
	}
	if c.dict == nil {
		// The entries live no longer than the column: they may stay
		// substrings of its arena.
		sc := newStrCoder(n, cell, false)
		if sc == nil {
			return nil, nil, false
		}
		codes = make([]uint32, n)
		for k := range codes {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			if c.Present(i) {
				if codes[k], ok = sc.code(c.StrAt(i)); !ok {
					return nil, nil, false
				}
			}
		}
		return sc.d.vals, codes, true
	}
	// A coded column's entries are distinct already: renumber the ones
	// its cells use in first-use order, with no string lookups.
	limit := dictLimit(n, cell)
	if limit == 0 {
		return nil, nil, false
	}
	codes = make([]uint32, n)
	local := make([]uint32, len(c.dict.vals)) // entry -> local code + 1
	for k := range codes {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if !c.Present(i) {
			continue
		}
		g := c.codes[i]
		if local[g] == 0 {
			if len(entries) == limit {
				return nil, nil, false
			}
			entries = append(entries, c.dict.vals[g])
			local[g] = uint32(len(entries))
		}
		codes[k] = local[g] - 1
	}
	return entries, codes, true
}

// strCell returns cell i's string and presence.
func (c *Column) strCell(i int) (string, bool) { return c.StrAt(i), c.Present(i) }

// RawDictColumn builds a dictionary-encoded string column from decoded
// entries and codes, the inverse of DictCodes. The entries must be
// distinct, or cells equal by string would compare unequal by code, and
// every code, an absent cell's included, must index them, so a corrupt
// payload surfaces as an error here rather than as split keys or a panic
// on first read. It is an ownership-transfer constructor: entries and
// codes are retained, not copied.
func RawDictColumn(name string, n int, entries []string, codes []uint32, pres []uint64) (Column, error) {
	if n < 0 || len(codes) != n {
		return Column{}, fmt.Errorf("frame: raw column %q: %d codes for %d rows", name, len(codes), n)
	}
	if pres != nil && len(pres) != (n+63)/64 {
		return Column{}, fmt.Errorf("frame: raw column %q: presence bitmap has %d words, want %d", name, len(pres), (n+63)/64)
	}
	if len(entries) == 0 {
		return Column{}, fmt.Errorf("frame: raw column %q: empty dictionary", name)
	}
	if k, dup := repeatedEntry(entries); dup {
		return Column{}, fmt.Errorf("frame: raw column %q: dictionary entry %d repeats %q", name, k, entries[k])
	}
	for i, code := range codes {
		if int(code) >= len(entries) {
			return Column{}, fmt.Errorf("frame: raw column %q: cell %d code %d beyond %d dictionary entries", name, i, code, len(entries))
		}
	}
	return Column{name: name, kind: value.KindString, codes: codes, dict: &dict{vals: entries}, pres: pres, n: n}, nil
}

// repeatedEntry reports whether some entry repeats an earlier one, and the
// first position holding such a copy. It sorts an index of the entries and
// compares neighbours; the index of a dictionary of HPC keys — a few dozen
// entries — fits a stack buffer, so the check allocates nothing there.
func repeatedEntry(entries []string) (int, bool) {
	var buf [64]int32
	idx := buf[:0]
	if len(entries) > len(buf) {
		idx = make([]int32, 0, len(entries))
	}
	for k := range entries {
		idx = append(idx, int32(k))
	}
	// Equal entries sort together, earlier position first.
	slices.SortFunc(idx, func(a, b int32) int {
		return cmp.Or(strings.Compare(entries[a], entries[b]), cmp.Compare(a, b))
	})
	first := -1 // the earliest later copy, as a scan in position order meets it
	for k := 1; k < len(idx); k++ {
		if entries[idx[k]] == entries[idx[k-1]] && (first < 0 || int(idx[k]) < first) {
			first = int(idx[k])
		}
	}
	return first, first >= 0
}

// dictUnion merges the dictionaries of a ConcatGather's inputs into one.
// Each input dictionary is remapped once, lazily: an entry enters the union
// the first time a present cell uses it.
type dictUnion struct {
	d     *dict
	index map[string]uint32
	from  *dict    // the input dictionary remap belongs to
	remap []uint32 // from's entry -> union code + 1; 0 = not yet mapped
	seen  map[*dict][]uint32
}

func newDictUnion() *dictUnion {
	return &dictUnion{d: &dict{}, index: map[string]uint32{}, seen: map[*dict][]uint32{}}
}

// use switches the union to remapping cells of in.
func (u *dictUnion) use(in *dict) {
	if u.from == in {
		return
	}
	rm, ok := u.seen[in]
	if !ok {
		rm = make([]uint32, len(in.vals))
		u.seen[in] = rm
	}
	u.from, u.remap = in, rm
}

// code returns the union code of entry g of the dictionary in use.
func (u *dictUnion) code(g uint32) uint32 {
	if m := u.remap[g]; m != 0 {
		return m - 1
	}
	m := u.codeStr(u.from.vals[g])
	u.remap[g] = m + 1
	return m
}

// codeStr returns the union code of s, adding s if it is new.
func (u *dictUnion) codeStr(s string) uint32 {
	m, ok := u.index[s]
	if !ok {
		m = uint32(len(u.d.vals))
		u.index[s] = m
		u.d.vals = append(u.d.vals, s)
	}
	return m
}

// finish returns the union, which must not be empty: an output of absent
// cells only still needs code 0 to index an entry.
func (u *dictUnion) finish() *dict {
	if len(u.d.vals) == 0 {
		u.d.vals = []string{""}
	}
	return u.d
}
