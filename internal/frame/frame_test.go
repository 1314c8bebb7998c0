package frame

import (
	"math"
	"math/rand"
	"testing"

	"scrubjay/internal/value"
)

// randValue draws a random scalar of a random kind, biased toward the
// kinds HPC datasets actually hold, with a sprinkle of nasties.
func randValue(rng *rand.Rand) value.Value {
	switch rng.Intn(9) {
	case 0:
		return value.Int(rng.Int63n(1000) - 500)
	case 1:
		return value.Float(rng.NormFloat64() * 100)
	case 2:
		return value.Str(randString(rng))
	case 3:
		return value.TimeNanos(rng.Int63n(1e18))
	case 4:
		s := rng.Int63n(1e18)
		return value.Span(s, s+rng.Int63n(1e12))
	case 5:
		return value.Bool(rng.Intn(2) == 0)
	case 6:
		return value.Null()
	case 7:
		return value.List(value.Int(rng.Int63n(10)), value.Str("x"))
	default:
		return value.Float(math.NaN())
	}
}

func randString(rng *rand.Rand) string {
	alphabet := []rune("abcXYZ 0\"\\<>&\n\t\u00e9\u2028\u2029\uffff")
	n := rng.Intn(8)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// randRows draws rows with randomly absent cells over a fixed column set.
// Columns c0..c2 are kind-stable (typed storage); c3+ mix kinds (boxed).
func randRows(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		r := value.Row{}
		if rng.Intn(10) > 0 {
			r["c0"] = value.Int(rng.Int63n(100))
		}
		if rng.Intn(10) > 0 {
			r["c1"] = value.Float(rng.Float64())
		}
		if rng.Intn(10) > 0 {
			r["c2"] = value.Str(randString(rng))
		}
		if rng.Intn(3) > 0 {
			r["c3"] = randValue(rng)
		}
		rows[i] = r
	}
	return rows
}

func rowsEqual(t *testing.T, want, got []value.Row) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row count: want %d got %d", len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("row %d: want %v got %v", i, want[i], got[i])
		}
	}
}

func TestFromRowsToRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows := randRows(rng, rng.Intn(40))
		f := FromRows(rows)
		if f.NumRows() != len(rows) {
			t.Fatalf("NumRows: want %d got %d", len(rows), f.NumRows())
		}
		rowsEqual(t, rows, f.ToRows())
	}
}

func TestTypedStorageChosen(t *testing.T) {
	rows := []value.Row{
		{"i": value.Int(1), "f": value.Float(1.5), "s": value.Str("a"), "t": value.TimeNanos(9)},
		{"i": value.Int(2), "f": value.Float(2.5), "s": value.Str("b"), "t": value.TimeNanos(10)},
	}
	f := FromRows(rows)
	for col, kind := range map[string]value.Kind{
		"i": value.KindInt, "f": value.KindFloat, "s": value.KindString, "t": value.KindTime,
	} {
		if got := f.Col(col).Kind(); got != kind {
			t.Errorf("col %s: storage kind %v, want %v", col, got, kind)
		}
	}
	// A null forces boxed storage but still round-trips.
	rows2 := []value.Row{{"i": value.Int(1)}, {"i": value.Null()}}
	f2 := FromRows(rows2)
	if f2.Col("i").Kind() != value.KindNull {
		t.Errorf("null-bearing column should be boxed")
	}
	rowsEqual(t, rows2, f2.ToRows())
}

func TestGatherFilterSelectDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randRows(rng, 30)
	f := FromRows(rows)

	idx := []int32{5, 0, 5, 29, 12}
	g := f.Gather(idx)
	want := make([]value.Row, len(idx))
	for i, s := range idx {
		want[i] = rows[s]
	}
	rowsEqual(t, want, g.ToRows())

	keep := make([]bool, len(rows))
	var kept []value.Row
	for i := range keep {
		keep[i] = i%3 == 0
		if keep[i] {
			kept = append(kept, rows[i])
		}
	}
	rowsEqual(t, kept, f.FilterMask(keep).ToRows())

	sel := f.Select([]string{"c2", "c0", "missing"})
	for i, r := range sel.ToRows() {
		if !r.Equal(rows[i].Project("c0", "c2")) {
			t.Fatalf("select row %d: got %v", i, r)
		}
	}
	dr := f.Drop("c1", "c3")
	for i, r := range dr.ToRows() {
		if !r.Equal(rows[i].Project("c0", "c2")) {
			t.Fatalf("drop row %d: got %v", i, r)
		}
	}
}

func TestConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randRows(rng, 7)
	b := []value.Row{{"c0": value.Str("not-an-int"), "extra": value.Int(1)}}
	c := randRows(rng, 5)
	f := ConcatGather([]*Frame{FromRows(a), FromRows(b), Empty(), FromRows(c)}, nil)
	var want []value.Row
	want = append(want, a...)
	want = append(want, b...)
	want = append(want, c...)
	rowsEqual(t, want, f.ToRows())
}

// TestConcatGather: concatenating selections equals concatenating the
// gathered frames whole — same rows, same column storage kinds — and a
// frame whose selection is empty contributes no columns.
func TestConcatGather(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, c := FromRows(randRows(rng, 9)), FromRows([]value.Row{{"c0": value.Str("s"), "extra": value.Int(1)}}), FromRows(randRows(rng, 6))
	frames := []*Frame{a, b, c, a}
	sels := [][]int32{{8, 0, 0, 3}, {}, nil, {2}}
	got := ConcatGather(frames, sels)
	want := ConcatGather([]*Frame{a.Gather(sels[0]), c, a.Gather(sels[3])}, nil)
	rowsEqual(t, want.ToRows(), got.ToRows())
	if got.NumCols() != want.NumCols() {
		t.Fatalf("ConcatGather: %d columns, want %d", got.NumCols(), want.NumCols())
	}
	for j := 0; j < want.NumCols(); j++ {
		if g, w := got.ColAt(j), want.ColAt(j); g.Name() != w.Name() || g.Kind() != w.Kind() || g.AllPresent() != w.AllPresent() {
			t.Fatalf("column %d: got %s kind %v, want %s kind %v", j, g.Name(), g.Kind(), w.Name(), w.Kind())
		}
	}
}

func TestHashOnAgreesWithEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randRows(rng, 200)
	f := FromRows(rows)
	cols := []string{"c0", "c3"}
	h := f.HashOn(cols, nil)
	ai := []int{f.ColIndex("c0"), f.ColIndex("c3")}
	for i := 0; i < 50; i++ {
		x, y := rng.Intn(len(rows)), rng.Intn(len(rows))
		eq := rows[x].Get("c0").Equal(rows[y].Get("c0")) && rows[x].Get("c3").Equal(rows[y].Get("c3"))
		if eq && h[x] != h[y] {
			t.Fatalf("equal key rows %d,%d hash differently", x, y)
		}
		if got := ValuesEqualOn(f, x, ai, f, y, ai, nil); got != eq {
			t.Fatalf("ValuesEqualOn(%d,%d)=%v want %v", x, y, got, eq)
		}
	}
	// Hash must match the boxed HashValue fold (typed fast paths agree).
	for i := 0; i < 20; i++ {
		x := rng.Intn(len(rows))
		want := hashSeed
		for _, c := range cols {
			want = HashValue(want, rows[x].Get(c))
		}
		if h[x] != want {
			t.Fatalf("row %d: vector hash %x, boxed fold %x", x, h[x], want)
		}
	}

	// Typed cases: ValuesEqualOn compares present cells of identically
	// typed columns unboxed. On every pair of cells across typed and boxed
	// columns — NaN payloads, +0 and -0, absent cells, spans, times, an int
	// column against a float column, a typed column against a boxed one —
	// it must answer exactly value.Value.Equal, and equal cells must hash
	// alike.
	nan, nan2 := math.NaN(), math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)
	absent := value.Value{} // placeholder: the cell is left unset
	typed := []struct {
		kind  value.Kind // the storage the cells must get
		cells []value.Value
		unset []bool
	}{
		{value.KindFloat, []value.Value{value.Float(nan), value.Float(nan2), value.Float(0), value.Float(negZero), value.Float(1.5), absent}, []bool{5: true}},
		{value.KindFloat, []value.Value{value.Float(negZero), value.Float(nan), absent, value.Float(1.5), value.Float(0), value.Float(1)}, []bool{2: true}},
		{value.KindInt, []value.Value{value.Int(0), value.Int(1), absent, value.Int(-1)}, []bool{2: true}},
		{value.KindBool, []value.Value{value.Bool(true), value.Bool(false), absent}, []bool{2: true}},
		{value.KindTime, []value.Value{value.TimeNanos(0), value.TimeNanos(1), absent}, []bool{2: true}},
		{value.KindSpan, []value.Value{value.Span(0, 1), value.Span(0, 2), value.Span(1, 2), absent}, []bool{3: true}},
		{value.KindString, []value.Value{value.Str("x"), value.Str(""), absent, value.Str("1")}, []bool{2: true}},
		{value.KindNull, []value.Value{value.Str("x"), value.Int(1), value.Float(0), value.Null(), value.Float(nan),
			value.Span(0, 1), value.TimeNanos(1), value.Bool(true), value.Float(negZero), absent}, []bool{9: true}},
	}
	frames := make([]*Frame, len(typed))
	for k, c := range typed {
		b := NewBuilder("k", len(c.cells))
		for i, v := range c.cells {
			if i >= len(c.unset) || !c.unset[i] {
				b.Set(i, v)
			}
		}
		frames[k] = New(b.Finish())
		if got := frames[k].ColAt(0).Kind(); got != c.kind {
			t.Fatalf("column %d stored as kind %v, want %v", k, got, c.kind)
		}
	}
	on := []int{0}
	for ka, a := range frames {
		ha := a.HashOn([]string{"k"}, nil)
		for kb, b := range frames {
			hb := b.HashOn([]string{"k"}, nil)
			for i := 0; i < a.NumRows(); i++ {
				for j := 0; j < b.NumRows(); j++ {
					av, bv := a.ColAt(0).Value(i), b.ColAt(0).Value(j)
					want := av.Equal(bv)
					if got := ValuesEqualOn(a, i, on, b, j, on, nil); got != want {
						t.Fatalf("column %d cell %d (%v) vs column %d cell %d (%v): ValuesEqualOn %v, Equal %v", ka, i, av, kb, j, bv, got, want)
					}
					if want && ha[i] != hb[j] {
						t.Fatalf("column %d cell %d and column %d cell %d are equal but hash apart", ka, i, kb, j)
					}
				}
			}
		}
	}
}

func TestBuilderAndWith(t *testing.T) {
	b := NewBuilder("out", 4)
	b.Set(0, value.Int(1))
	b.Set(2, value.Int(3))
	col := b.Finish()
	if col.Kind() != value.KindInt {
		t.Fatalf("uniform ints should stay typed, got %v", col.Kind())
	}
	f := New(ColumnOf("a", []value.Value{value.Str("w"), value.Str("x"), value.Str("y"), value.Str("z")}))
	f2 := f.With(col)
	want := []value.Row{
		{"a": value.Str("w"), "out": value.Int(1)},
		{"a": value.Str("x")},
		{"a": value.Str("y"), "out": value.Int(3)},
		{"a": value.Str("z")},
	}
	rowsEqual(t, want, f2.ToRows())
	if len(f.Columns()) != 1 {
		t.Fatalf("With must not mutate the receiver")
	}
}

func TestMaskKernels(t *testing.T) {
	rows := []value.Row{
		{"x": value.Int(1)}, {"x": value.Int(5)}, {}, {"x": value.Null()},
	}
	f := FromRows(rows)
	gotV := MaskValues(f, "x", func(v value.Value) bool { return v.Kind() == value.KindInt && v.IntVal() > 2 })
	wantV := []bool{false, true, false, false}
	for i := range wantV {
		if gotV[i] != wantV[i] {
			t.Fatalf("MaskValues[%d]=%v", i, gotV[i])
		}
	}
}

func TestTimeColumnHelpers(t *testing.T) {
	const now int64 = 1500000000123456789
	f := New(TimeColumn("t", []int64{now, now + 1}), FloatColumn("v", []float64{1, 2}))
	want := []value.Row{
		{"t": value.TimeNanos(now), "v": value.Float(1)},
		{"t": value.TimeNanos(now + 1), "v": value.Float(2)},
	}
	rowsEqual(t, want, f.ToRows())
}

// TestRenameSharesStorage: Rename relabels one column exactly as the row
// path moves a cell between keys — absent cells stay absent — and shares
// the payload and presence bits instead of copying them.
func TestRenameSharesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	rows := randRows(rng, 200)
	f := FromRows(rows)
	for _, from := range []string{"c0", "c1", "c2", "c3"} {
		g := f.Rename(from, "renamed")
		if g.Col(from) != nil {
			t.Fatalf("Rename(%s): source column survives", from)
		}
		src, dst := f.Col(from), g.Col("renamed")
		if dst.Kind() != src.Kind() || (src.pres != nil && &src.pres[0] != &dst.pres[0]) {
			t.Fatalf("Rename(%s): presence or kind not shared", from)
		}
		if len(src.ints) > 0 && &src.ints[0] != &dst.ints[0] || len(src.flts) > 0 && &src.flts[0] != &dst.flts[0] ||
			len(src.strs) > 0 && &src.strs[0] != &dst.strs[0] || len(src.boxd) > 0 && &src.boxd[0] != &dst.boxd[0] {
			t.Fatalf("Rename(%s): payload copied", from)
		}
		for i, r := range rows {
			want := r.Clone()
			if v, ok := want[from]; ok {
				delete(want, from)
				want["renamed"] = v
			}
			if got := g.RowAt(i); !got.Equal(want) {
				t.Fatalf("Rename(%s) row %d: got %v, want %v", from, i, got, want)
			}
		}
	}
	if f.Rename("missing", "x") != f {
		t.Error("Rename of an absent column should return the frame itself")
	}
	if g := f.Rename("c0", "c1"); g.NumCols() != f.NumCols()-1 || g.Col("c1").Kind() != value.KindInt {
		t.Error("Rename onto an existing name should replace that column")
	}
}

func TestFloatColumnWhere(t *testing.T) {
	vals := []float64{1, 2, 3}
	if c := FloatColumnWhere("x", vals, []bool{true, true, true}); !c.AllPresent() {
		t.Error("all-ok column should carry no presence bitmap")
	}
	c := FloatColumnWhere("x", vals, []bool{true, false, true})
	if !c.Present(0) || c.Present(1) || !c.Present(2) || !c.Value(2).Equal(value.Float(3)) {
		t.Errorf("presence or payload wrong: %v %v %v", c.Value(0), c.Value(1), c.Value(2))
	}
}
