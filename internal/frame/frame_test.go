package frame

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

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

// catRows draws rows whose column k repeats strings from pool (absent in
// about one row of eight) beside an int column v, so FromRows
// dictionary-encodes k once the rows outnumber twice the pool.
func catRows(rng *rand.Rand, n int, pool []string) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		r := value.Row{"v": value.Int(rng.Int63n(5))}
		if rng.Intn(8) > 0 {
			r["k"] = value.Str(pool[rng.Intn(len(pool))])
		}
		rows[i] = r
	}
	return rows
}

// dictFrame pivots rows and fails the test unless column k came out
// dictionary-encoded.
func dictFrame(t *testing.T, rows []value.Row) *Frame {
	t.Helper()
	f := FromRows(rows)
	if c := f.Col("k"); c == nil || !c.DictEncoded() {
		t.Fatalf("column k of %d rows is not dictionary-encoded", len(rows))
	}
	return f
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
	f := ConcatGather([]*Frame{FromRows(a), FromRows(b), Empty(), FromRows(c)}, nil, nil)
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
	got := ConcatGather(frames, sels, nil)
	want := ConcatGather([]*Frame{a.Gather(sels[0]), c, a.Gather(sels[3])}, nil, nil)
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
	// The same over a dictionary column, as the first key column (hashes
	// gathered by code) and as a later one (hashed per row).
	dr := catRows(rng, 60, []string{"rack-a", "", "rack-b", "rack-c"})
	df := dictFrame(t, dr)
	for _, cols := range [][]string{{"k"}, {"k", "v"}, {"v", "k"}} {
		h := df.HashOn(cols, nil)
		for x, r := range dr {
			want := hashSeed
			for _, c := range cols {
				want = HashValue(want, r.Get(c))
			}
			if h[x] != want {
				t.Fatalf("dictionary column, key %v, row %d: vector hash %x, boxed fold %x", cols, x, h[x], want)
			}
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
		dict  bool // dictionary-encoded, through FromRows
	}{
		{value.KindFloat, []value.Value{value.Float(nan), value.Float(nan2), value.Float(0), value.Float(negZero), value.Float(1.5), absent}, []bool{5: true}, false},
		{value.KindFloat, []value.Value{value.Float(negZero), value.Float(nan), absent, value.Float(1.5), value.Float(0), value.Float(1)}, []bool{2: true}, false},
		{value.KindInt, []value.Value{value.Int(0), value.Int(1), absent, value.Int(-1)}, []bool{2: true}, false},
		{value.KindBool, []value.Value{value.Bool(true), value.Bool(false), absent}, []bool{2: true}, false},
		{value.KindTime, []value.Value{value.TimeNanos(0), value.TimeNanos(1), absent}, []bool{2: true}, false},
		{value.KindSpan, []value.Value{value.Span(0, 1), value.Span(0, 2), value.Span(1, 2), absent}, []bool{3: true}, false},
		{value.KindString, []value.Value{value.Str("x"), value.Str(""), absent, value.Str("1")}, []bool{2: true}, false},
		// Two dictionaries coding the same strings differently: code 0 is
		// "x" in one and "1" in the other.
		{value.KindString, []value.Value{value.Str("x"), value.Str(""), absent, value.Str("1"), value.Str("x"), value.Str("1"), value.Str("")}, []bool{2: true}, true},
		{value.KindString, []value.Value{value.Str("1"), value.Str("x"), value.Str("1"), absent, value.Str("2"), value.Str("x")}, []bool{3: true}, true},
		{value.KindNull, []value.Value{value.Str("x"), value.Int(1), value.Float(0), value.Null(), value.Float(nan),
			value.Span(0, 1), value.TimeNanos(1), value.Bool(true), value.Float(negZero), absent}, []bool{9: true}, false},
	}
	frames := make([]*Frame, len(typed))
	for k, c := range typed {
		if c.dict {
			rows := make([]value.Row, len(c.cells))
			for i, v := range c.cells {
				rows[i] = value.Row{}
				if i >= len(c.unset) || !c.unset[i] {
					rows[i]["k"] = v
				}
			}
			frames[k] = dictFrame(t, rows)
			continue
		}
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
			len(src.soff) > 0 && (&src.soff[0] != &dst.soff[0] || unsafe.StringData(src.sdat) != unsafe.StringData(dst.sdat)) ||
			len(src.boxd) > 0 && &src.boxd[0] != &dst.boxd[0] {
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

// frameBytes encodes everything a frame holds — row count, column index,
// and each column's name, kind, presence words and payload vectors — so
// equal bytes mean equal contents.
func frameBytes(f *Frame) []byte {
	b := fmt.Appendf(nil, "%d %v|", f.n, f.index)
	for j := range f.cols {
		c := &f.cols[j]
		b = fmt.Appendf(b, "%q %d %d %v %v %v %q %v %v %v|", c.name, c.kind, c.n, c.pres, c.ints, c.flts, c.sdat, c.soff, c.ends, c.codes)
		if c.dict != nil {
			b = fmt.Appendf(b, "%q|", c.dict.vals)
		}
		for _, v := range c.boxd {
			b = v.AppendBinary(b)
		}
	}
	return b
}

// scribble writes through v: every element of a slice (recursively) and
// every entry of a map is zeroed.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
			v.Index(i).SetZero()
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			v.SetMapIndex(k, reflect.Zero(v.Type().Elem()))
		}
	}
}

// TestFramesImmutable holds frame immutability, the guarantee that lets
// partitions, catalog snapshots and in-flight streams share one frame
// without copies or locks. Every method that builds a frame or column must
// leave its receiver and inputs byte-for-byte unchanged. And no exported
// method may hand out a column's storage: a method returning a slice or
// map must be on the allowlist below, whose results are fresh, and writing
// through each of those results must leave the frame unchanged. The
// dictionary-encoded inputs share their dictionaries with every result
// built from them, so those must come through unchanged too.
func TestFramesImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f := FromRows(randRows(rng, 70))
	other := FromRows(randRows(rng, 70)).Drop("c0").Rename("c3", "d3")
	short := FromRows(randRows(rng, 9))
	pool := []string{"n1", "n2", "<n3>", "n4"}
	df := dictFrame(t, catRows(rng, 40, pool))
	dg := dictFrame(t, catRows(rng, 30, []string{"n4", "n5", "n1"}))
	perm := make([]int32, df.NumRows())
	for i := range perm {
		perm[i] = int32(len(perm) - 1 - i)
	}
	ints := make([]value.Value, f.NumRows())
	for i := range ints {
		ints[i] = value.Int(int64(i))
	}
	repl := New(ColumnOf("c1", ints))
	added := New(FloatColumn("added", make([]float64, f.NumRows())))
	keep := make([]bool, f.NumRows())
	for i := range keep {
		keep[i] = i%3 != 0
	}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Select", func() { f.Select([]string{"c2", "c0"}) }},
		{"Drop", func() { f.Drop("c1") }},
		{"With/add", func() { f.With(*added.ColAt(0)) }},
		{"With/replace", func() { f.With(*repl.ColAt(0)) }},
		{"Rename", func() { f.Rename("c0", "r") }},
		{"Rename/onto", func() { f.Rename("c0", "c1") }},
		{"Gather", func() { f.Gather([]int32{3, 0, 3, 69}) }},
		{"FilterMask", func() { f.FilterMask(keep) }},
		{"Merge", func() { Merge(f, other) }},
		{"ConcatGather", func() { ConcatGather([]*Frame{f, short, f}, [][]int32{{1, 2}, nil, {0}}, nil) }},
		{"Gather/dict", func() { df.Gather([]int32{3, 0, 3, 39}) }},
		{"Select/dict", func() { df.Select([]string{"k"}) }},
		{"Rename/dict", func() { df.Rename("k", "r") }},
		{"Merge/dict", func() { Merge(df, df.Gather(perm)) }},
		{"ConcatGather/dict", func() { ConcatGather([]*Frame{df, df}, [][]int32{{1, 2}, {0}}, nil) }},
		{"ConcatGather/two-dicts", func() { ConcatGather([]*Frame{df, dg, df}, [][]int32{{1, 2}, nil, {0}}, nil) }},
		{"ConcatGather/dict+plain", func() { ConcatGather([]*Frame{df, f.Rename("c2", "k")}, nil, nil) }},
		{"DictCodes", func() { df.Col("k").DictCodes(nil) }},
	} {
		inputs := []*Frame{f, other, short, repl, added, df, dg}
		before := make([][]byte, len(inputs))
		for i, in := range inputs {
			before[i] = frameBytes(in)
		}
		c.call()
		for i, in := range inputs {
			if !bytes.Equal(before[i], frameBytes(in)) {
				t.Errorf("%s changed input frame %d", c.name, i)
			}
		}
	}

	allow := map[string]func(f *Frame) []any{
		"Frame.AppendRowJSON": func(f *Frame) []any { return []any{f.AppendRowJSON(nil, 0, f.EncodedKeys())} },
		"Frame.Columns":       func(f *Frame) []any { return []any{f.Columns()} },
		"Frame.EncodedKeys":   func(f *Frame) []any { return []any{f.EncodedKeys()} },
		"Frame.HashOn":        func(f *Frame) []any { return []any{f.HashOn(f.Columns(), nil)} },
		"Frame.RowAt":         func(f *Frame) []any { return []any{f.RowAt(0)} },
		"Frame.ToRows":        func(f *Frame) []any { return []any{f.ToRows()} },
		"Column.DictCodes": func(f *Frame) []any {
			var out []any
			for j := range f.cols {
				entries, codes, _ := f.cols[j].DictCodes(nil)
				out = append(out, entries, codes)
			}
			return out
		},
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(&Frame{}), reflect.TypeOf(&Column{})} {
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			name := typ.Elem().Name() + "." + m.Name
			for o := 0; o < m.Type.NumOut(); o++ {
				if k := m.Type.Out(o).Kind(); (k == reflect.Slice || k == reflect.Map) && allow[name] == nil {
					t.Errorf("%s returns a %v: a method must not hand out column storage", name, m.Type.Out(o))
				}
			}
		}
	}
	for name, call := range allow {
		for _, g := range []*Frame{f, df} {
			before := frameBytes(g)
			for _, res := range call(g) {
				scribble(reflect.ValueOf(res))
			}
			if !bytes.Equal(before, frameBytes(g)) {
				t.Errorf("writing through the result of %s changed the frame", name)
			}
		}
	}
}

// TestPivotSharesDicts: a Pivot built over all of a row set's rows codes
// every partition's low-cardinality string column in one shared
// dictionary — partitions too small to code alone included — with their
// cells unchanged; a unique-key column and a column with a non-string
// cell stay plain, and a string the dictionary lacks leaves that
// partition's column plain.
func TestPivotSharesDicts(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rows := catRows(rng, 90, []string{"r1", "r2", "<r3>"})
	for i, r := range rows {
		r["id"] = value.Str(fmt.Sprintf("n%03d", i))
		r["mixed"] = value.Str("m")
	}
	rows[89]["mixed"] = value.Int(1)
	p := NewPivot(rows)
	var d *dict
	for _, cut := range [][2]int{{0, 40}, {40, 41}, {41, 43}, {43, 43}, {43, 90}} {
		part := rows[cut[0]:cut[1]]
		if c := FromRows(part).Col("k"); len(part) == 1 && c != nil && c.DictEncoded() {
			t.Fatal("a one-row partition should pivot plain alone")
		}
		f := p.FromRows(part)
		rowsEqual(t, part, f.ToRows())
		if c := f.Col("k"); c != nil {
			if d == nil {
				d = c.dict
			}
			if c.dict == nil || c.dict != d {
				t.Fatalf("rows %v: column k not coded in the shared dictionary", cut)
			}
		}
		if c := f.Col("id"); c != nil && c.DictEncoded() {
			t.Fatalf("rows %v: unique ids were dictionary-encoded", cut)
		}
		if c := f.Col("mixed"); c != nil && c.DictEncoded() {
			t.Fatalf("rows %v: a column holding a non-string was dictionary-encoded", cut)
		}
	}
	stray := []value.Row{{"k": value.Str("r1")}, {"k": value.Str("r9")}}
	f := p.FromRows(stray)
	rowsEqual(t, stray, f.ToRows())
	if f.Col("k").DictEncoded() {
		t.Fatal("a string missing from the shared dictionary should leave the column plain")
	}
}

// TestRawDictColumnRejectsRepeats: the decoder's dictionary check reports
// the first position repeating an earlier entry, whether the dictionary's
// index fits the check's stack buffer or not, and a small dictionary's
// check allocates nothing beyond the column's own dictionary header.
func TestRawDictColumnRejectsRepeats(t *testing.T) {
	for _, size := range []int{2, 8, 64, 65, 300} {
		entries := make([]string, size)
		for k := range entries {
			entries[k] = fmt.Sprintf("e%03d", (k*7)%size) // distinct, not in sorted order
		}
		codes := []uint32{0, uint32(size - 1)}
		if _, err := RawDictColumn("k", 2, entries, codes, nil); err != nil {
			t.Fatalf("%d distinct entries: %v", size, err)
		}
		// Repeat an entry at the end, then an earlier one further in: the
		// error names the earlier repeat, as a scan in position order would.
		dup := slices.Clone(entries)
		dup[size-1] = dup[0]
		if size > 2 {
			dup[size/2] = dup[1]
		}
		at := size - 1
		if size > 2 {
			at = size / 2
		}
		_, err := RawDictColumn("k", 2, dup, codes, nil)
		if want := fmt.Sprintf("entry %d repeats %q", at, dup[at]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%d entries with repeats: err = %v, want %q", size, err, want)
		}
	}
	entries := []string{"r1", "r2", "r3", "r4"}
	codes := []uint32{0, 1, 2, 3, 3, 2}
	if n := testing.AllocsPerRun(100, func() { _, _ = RawDictColumn("k", len(codes), entries, codes, nil) }); n > 1 {
		t.Errorf("RawDictColumn over %d entries: %.0f allocations, want at most 1", len(entries), n)
	}
}
