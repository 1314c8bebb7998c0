package frame_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"scrubjay/internal/frame"
	"scrubjay/internal/shuffle"
	"scrubjay/internal/value"
)

// FuzzConcatGather holds ConcatGather with an index to the two-step
// result it replaces: ConcatGather(fs, sels, idx) must equal
// ConcatGather(fs, sels, nil).Gather(idx) in its columns and their kinds,
// dictionary entries and presence-bitmap nil-ness, and in every cell,
// AppendRowJSON line and wire byte. Each input draws one to four pieces
// (frames with or without a selection) whose columns come and go from
// piece to piece: an int column on every piece, a string column plain or
// coded in one of two dictionaries, a column int in some pieces and string
// in others, a boxed column and a float column with absent cells.
//
// Input layout, one byte each unless noted: the piece count, then per
// piece its row count, a shape byte (see pieceShape), one byte per row
// for its cells, and with a selection its length and indexes; then the
// index length and its entries.
func FuzzConcatGather(f *testing.F) {
	// A piece lacking the string, mixed and boxed columns.
	f.Add([]byte{1, 3, 0b0101011, 1, 2, 3, 2, 4, 0b0000000, 4, 5, 6, 7, 5, 0, 3, 4, 6, 1})
	// The mixed column an int in one piece and a string in the next.
	f.Add([]byte{1, 3, 0b0001001, 1, 2, 4, 3, 0b0011001, 7, 8, 9, 6, 5, 4, 3, 2, 1, 0})
	// A contributing piece (the second) of which the index takes no row.
	f.Add([]byte{2, 2, 0b0000011, 1, 6, 3, 0b0000111, 15, 16, 12, 2, 0b0000011, 8, 9, 4, 0, 1, 5, 6})
	// Two dictionaries, and a plain piece beside coded ones.
	f.Add([]byte{2, 4, 0b0000011, 1, 6, 11, 16, 4, 0b0000111, 2, 7, 12, 17, 4, 0b0000001, 3, 8, 13, 18, 8, 0, 5, 9, 13, 2, 7, 11, 15})
	// Empty pieces, one with an empty selection and one with no rows.
	f.Add([]byte{3, 3, 0b1000011, 1, 2, 3, 0, 0, 0b0101011, 2, 0b0000011, 4, 5, 2, 0, 1, 3, 5, 0, 1, 3, 2, 1})
	// Repeated indexes over a selection that repeats rows.
	f.Add([]byte{1, 4, 0b1101011, 1, 2, 3, 4, 6, 3, 3, 0, 1, 1, 2, 3, 0b0000011, 5, 6, 7, 9, 0, 0, 8, 8, 3, 3, 6, 6, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := &bytesource{b: b}
		fs, sels := src.pieces()
		total := 0
		for p, pf := range fs {
			if sels[p] != nil {
				total += len(sels[p])
			} else {
				total += pf.NumRows()
			}
		}
		var idx []int32
		if total > 0 {
			idx = src.indexes(src.next()%40, total)
		} else {
			idx = []int32{}
		}
		got := frame.ConcatGather(fs, sels, idx)
		want := frame.ConcatGather(fs, sels, nil).Gather(idx)
		sameRepresentation(t, got, want)
	})
}

// sameRepresentation fails unless got and want have the same columns,
// kinds, dictionaries, presence-bitmap nil-ness, cells, NDJSON lines and
// wire bytes.
func sameRepresentation(t *testing.T, got, want *frame.Frame) {
	t.Helper()
	if got.NumRows() != want.NumRows() || !slices.Equal(got.Columns(), want.Columns()) {
		t.Fatalf("shape %d×%v, want %d×%v", got.NumRows(), got.Columns(), want.NumRows(), want.Columns())
	}
	for _, name := range want.Columns() {
		gc, wc := got.Col(name), want.Col(name)
		if gc.Kind() != wc.Kind() || gc.DictEncoded() != wc.DictEncoded() || gc.AllPresent() != wc.AllPresent() {
			t.Fatalf("column %s: kind %v coded %v all-present %v, want %v %v %v", name,
				gc.Kind(), gc.DictEncoded(), gc.AllPresent(), wc.Kind(), wc.DictEncoded(), wc.AllPresent())
		}
		if ge, we := frame.DictEntries(gc), frame.DictEntries(wc); !slices.Equal(ge, we) {
			t.Fatalf("column %s: dictionary %q, want %q", name, ge, we)
		}
		for i := 0; i < want.NumRows(); i++ {
			if gc.Present(i) != wc.Present(i) || !gc.Value(i).Equal(wc.Value(i)) {
				t.Fatalf("%s[%d] = %v (present %v), want %v (present %v)", name, i, gc.Value(i), gc.Present(i), wc.Value(i), wc.Present(i))
			}
		}
	}
	gk, wk := got.EncodedKeys(), want.EncodedKeys()
	for i := 0; i < want.NumRows(); i++ {
		if gj, wj := got.AppendRowJSON(nil, i, gk), want.AppendRowJSON(nil, i, wk); !bytes.Equal(gj, wj) {
			t.Fatalf("row %d JSON %s, want %s", i, gj, wj)
		}
	}
	if !bytes.Equal(shuffle.AppendFrame(nil, got), shuffle.AppendFrame(nil, want)) {
		t.Fatal("wire bytes differ")
	}
}

// pieceShape is a piece's shape byte: which columns it has and how.
const (
	hasStr   = 1 << iota // string column "k"
	strCoded             // "k" dictionary-encoded, else plain
	strDictB             // coded in the second dictionary, else the first
	hasMixed             // column "x"
	mixedStr             // "x" holds strings here, else ints
	hasBoxed             // column "b", boxed (ints beside string lists)
	hasSel               // the piece carries a selection
)

// pieces draws the frames and selections of one input.
func (s *bytesource) pieces() ([]*frame.Frame, [][]int32) {
	dictA := []string{"a", "b", "", "c"}
	dictB := []string{"z", "c", "", "b", "a"}
	np := 1 + s.next()%4
	fs, sels := make([]*frame.Frame, np), make([][]int32, np)
	for p := range fs {
		n, shape := s.next()%12, s.next()
		cells := make([]int, n)
		for i := range cells {
			cells[i] = s.next()
		}
		cols := []frame.Column{column("v", cells, func(i, _ int) (value.Value, bool) {
			return value.Int(int64(100*p + i)), true
		})}
		cols = append(cols, column("f", cells, func(_, c int) (value.Value, bool) {
			return value.Float(float64(c) / 8), c%4 != 1
		}))
		if shape&hasStr != 0 {
			strs, present := make([]string, n), make([]bool, n)
			for i, c := range cells {
				strs[i], present[i] = dictA[c/5%len(dictA)], c%5 != 0
			}
			var entries []string
			switch {
			case shape&strCoded == 0:
			case shape&strDictB != 0:
				entries = dictB
			default:
				entries = dictA
			}
			cols = append(cols, frame.StrColumnOf("k", strs, present, entries))
		}
		if shape&hasMixed != 0 {
			cols = append(cols, column("x", cells, func(_, c int) (value.Value, bool) {
				if shape&mixedStr != 0 {
					return value.Str(fmt.Sprint(c % 7)), c%3 != 0
				}
				return value.Int(int64(c % 7)), c%3 != 0
			}))
		}
		if shape&hasBoxed != 0 {
			cols = append(cols, column("b", cells, func(_, c int) (value.Value, bool) {
				if c%2 == 0 {
					return value.Int(int64(c)), true
				}
				return value.StrList(fmt.Sprint(c)), c%3 != 0
			}))
		}
		fs[p] = frame.New(cols...)
		if shape&hasSel != 0 {
			m := s.next() % (n + 3)
			if n == 0 {
				m = 0
			}
			sels[p] = s.indexes(m, max(n, 1))
		}
	}
	return fs, sels
}

// column builds column name with one cell per entry of cells: cell(i, c)
// returns row i's value and whether it is present.
func column(name string, cells []int, cell func(i, c int) (value.Value, bool)) frame.Column {
	b := frame.NewBuilder(name, len(cells))
	for i, c := range cells {
		if v, ok := cell(i, c); ok {
			b.Set(i, v)
		}
	}
	return b.Finish()
}
