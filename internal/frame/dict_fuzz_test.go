package frame_test

import (
	"bytes"
	"slices"
	"testing"

	"scrubjay/internal/frame"
	"scrubjay/internal/shuffle"
	"scrubjay/internal/value"
)

// FuzzDictColumns holds dictionary-encoded string columns to the plain
// ones they stand for. Each input builds a random string column three
// times — dictionary-encoded, plain, and through a Builder, which codes it
// when the dictionary gate lets it — beside a row-number column, and a
// second column over a dictionary that codes the same strings in another
// order. Every kernel result built from the encoded inputs must match the
// one built from the plain inputs in its cells, HashOn vectors,
// ValuesEqualOn answers, AppendRowJSON bytes and wire bytes, and must
// decode back to the same cells: through Gather, ConcatGather (one shared
// dictionary, two different dictionaries, and encoded mixed with plain)
// and Merge (coalescing within one dictionary, and against plain).
func FuzzDictColumns(f *testing.F) {
	f.Add([]byte{11, 2, 'a', 'b', 1, 'c', 0, 7, 12, 3, 9, 4, 20, 14, 6, 1, 8, 2, 5, 5, 9, 10, 11, 3})
	f.Add([]byte{30, 5, 2, '<', '>', 1, 0xff, 0, 3, 'x', 'y', 'z', 1, '"', 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0})
	// Empty strings, absent cells and invalid UTF-8 in a pool of three,
	// every case's ConcatGather mixing plain and coded batches over them.
	f.Add([]byte{9, 2, 0, 2, 0xff, 0xfe, 1, 0xc3, 0, 5, 10, 6, 11, 15, 20, 1, 2, 3, 7, 4, 0, 5, 10, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{17, 5, 0, 1, 0x80, 2, 0xed, 0xa0, 3, 0xf4, 0x90, 0x80, 0, 0, 4, 9, 14, 19, 24, 29, 0, 5, 25, 1, 2, 3, 4, 6, 7, 8, 9, 11, 12})
	f.Fuzz(func(t *testing.T, b []byte) {
		src := &bytesource{b: b}
		n := 1 + src.next()%40
		pool := src.pool()
		entries := pool
		other := append(slices.Clone(pool), "z")
		slices.Reverse(other)
		ad, ap, ab := src.frame(n, pool, entries)
		bd, bp, _ := src.frame(1+src.next()%20, pool, other)
		idx := src.indexes(n, n)
		rev := make([]int32, n)
		for i := range rev {
			rev[i] = int32(n - 1 - i)
		}
		type pair struct {
			what string
			d, p *frame.Frame
		}
		cases := []pair{
			{"input", ad, ap},
			{"Gather", ad.Gather(idx), ap.Gather(idx)},
			{"ConcatGather/one-dict", frame.ConcatGather([]*frame.Frame{ad, ad}, [][]int32{idx, nil}, nil),
				frame.ConcatGather([]*frame.Frame{ap, ap}, [][]int32{idx, nil}, nil)},
			{"ConcatGather/two-dicts", frame.ConcatGather([]*frame.Frame{ad, bd, ad}, [][]int32{nil, nil, idx}, nil),
				frame.ConcatGather([]*frame.Frame{ap, bp, ap}, [][]int32{nil, nil, idx}, nil)},
			{"ConcatGather/mixed", frame.ConcatGather([]*frame.Frame{bd, ap, ad}, [][]int32{nil, idx, nil}, nil),
				frame.ConcatGather([]*frame.Frame{bp, ap, ap}, [][]int32{nil, idx, nil}, nil)},
			{"Merge/one-dict", frame.Merge(ad, ad.Gather(rev)), frame.Merge(ap, ap.Gather(rev))},
			{"Merge/mixed", frame.Merge(ad, ap.Gather(rev)), frame.Merge(ap, ap.Gather(rev))},
		}
		// A Builder holding no present cell cannot know they are strings.
		if ab.Col("k").Kind() == value.KindString {
			cases = append(cases, pair{"Builder", ab, ap},
				pair{"ConcatGather/Builder", frame.ConcatGather([]*frame.Frame{ab, bd, ad}, [][]int32{idx, nil, nil}, nil),
					frame.ConcatGather([]*frame.Frame{ap, bp, ap}, [][]int32{idx, nil, nil}, nil)},
				pair{"Merge/Builder", frame.Merge(ab, ad.Gather(rev)), frame.Merge(ap, ap.Gather(rev))})
		}
		for _, c := range cases {
			sameFrames(t, c.what, c.d, c.p)
		}
		// Across two dictionaries, equality is still string equality.
		on := []int{ad.ColIndex("k")}
		for i := 0; i < ad.NumRows(); i++ {
			for j := 0; j < bd.NumRows(); j++ {
				want := ad.Col("k").Value(i).Equal(bd.Col("k").Value(j))
				if got := frame.ValuesEqualOn(ad, i, on, bd, j, on, nil); got != want {
					t.Fatalf("two dictionaries: row %d vs row %d: ValuesEqualOn %v, want %v", i, j, got, want)
				}
			}
		}
	})
}

// sameFrames fails unless d (built from dictionary-encoded inputs) and p
// (from plain ones) are indistinguishable from outside the frame package.
func sameFrames(t *testing.T, what string, d, p *frame.Frame) {
	t.Helper()
	if d.NumRows() != p.NumRows() || !slices.Equal(d.Columns(), p.Columns()) {
		t.Fatalf("%s: shape %d×%v, plain %d×%v", what, d.NumRows(), d.Columns(), p.NumRows(), p.Columns())
	}
	n := d.NumRows()
	for _, name := range d.Columns() {
		dc, pc := d.Col(name), p.Col(name)
		if dc.Kind() != pc.Kind() {
			t.Fatalf("%s: column %s kind %v, plain %v", what, name, dc.Kind(), pc.Kind())
		}
		for i := 0; i < n; i++ {
			if dc.Present(i) != pc.Present(i) || !dc.Value(i).Equal(pc.Value(i)) {
				t.Fatalf("%s: %s[%d] = %v (present %v), plain %v (present %v)", what, name, i, dc.Value(i), dc.Present(i), pc.Value(i), pc.Present(i))
			}
		}
	}
	for _, key := range [][]string{{"k"}, {"v", "k"}, {"k", "v"}} {
		if hd, hp := d.HashOn(key, nil), p.HashOn(key, nil); !slices.Equal(hd, hp) {
			t.Fatalf("%s: HashOn(%v) differs from plain", what, key)
		}
	}
	dk, pk := []int{d.ColIndex("k")}, []int{p.ColIndex("k")}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := p.Col("k").Value(i).Equal(p.Col("k").Value(j))
			if frame.ValuesEqualOn(d, i, dk, d, j, dk, nil) != want || frame.ValuesEqualOn(d, i, dk, p, j, pk, nil) != want ||
				frame.ValuesEqualOn(p, i, pk, p, j, pk, nil) != want {
				t.Fatalf("%s: ValuesEqualOn rows %d, %d disagrees with Equal (%v)", what, i, j, want)
			}
		}
	}
	dkeys, pkeys := d.EncodedKeys(), p.EncodedKeys()
	for i := 0; i < n; i++ {
		if dj, pj := d.AppendRowJSON(nil, i, dkeys), p.AppendRowJSON(nil, i, pkeys); !bytes.Equal(dj, pj) {
			t.Fatalf("%s: row %d JSON %s, plain %s", what, i, dj, pj)
		}
	}
	dw, pw := shuffle.AppendFrame(nil, d), shuffle.AppendFrame(nil, p)
	if !bytes.Equal(dw, pw) {
		t.Fatalf("%s: wire bytes differ from plain", what)
	}
	back, _, err := shuffle.DecodeFrame(dw)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	for _, name := range p.Columns() {
		bc, pc := back.Col(name), p.Col(name)
		for i := 0; i < n; i++ {
			if bc.Present(i) != pc.Present(i) || !bc.Value(i).Equal(pc.Value(i)) {
				t.Fatalf("%s: decoded %s[%d] = %v, want %v", what, name, i, bc.Value(i), pc.Value(i))
			}
		}
	}
}

// bytesource reads a fuzz input as small numbers, then zeros once spent.
type bytesource struct{ b []byte }

func (s *bytesource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0])
	s.b = s.b[1:]
	return v
}

// pool draws one to six distinct strings of up to three bytes each.
func (s *bytesource) pool() []string {
	m := 1 + s.next()%6
	var pool []string
	for k := 0; k < m; k++ {
		l := s.next() % 4
		str := make([]byte, l)
		for i := range str {
			str[i] = byte(s.next())
		}
		if !slices.Contains(pool, string(str)) {
			pool = append(pool, string(str))
		}
	}
	return pool
}

// frame draws n string cells from pool, about one in five absent, and
// returns them as column k beside a row-number column v: coded over
// entries (a superset of pool), plain, and set cell by cell in a Builder.
func (s *bytesource) frame(n int, pool, entries []string) (coded, plain, built *frame.Frame) {
	cells, present := make([]string, n), make([]bool, n)
	rows := make([]value.Value, n)
	for i := range cells {
		x := s.next()
		present[i] = x%5 != 0
		cells[i] = pool[x/5%len(pool)]
		rows[i] = value.Int(int64(i))
	}
	v := frame.ColumnOf("v", rows)
	b := frame.NewBuilder("k", n)
	for i, str := range cells {
		if present[i] {
			b.Set(i, value.Str(str))
		}
	}
	return frame.New(frame.StrColumnOf("k", cells, present, entries), v),
		frame.New(frame.StrColumnOf("k", cells, present, nil), v),
		frame.New(b.Finish(), v)
}

// indexes draws m row indexes below n.
func (s *bytesource) indexes(m, n int) []int32 {
	idx := make([]int32, m)
	for i := range idx {
		idx[i] = int32(s.next() % n)
	}
	return idx
}
