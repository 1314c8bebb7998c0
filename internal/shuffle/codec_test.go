package shuffle

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"scrubjay/internal/frame"
	"scrubjay/internal/value"
)

// testFrames is the round-trip corpus: every column kind, presence bitmaps,
// boxed columns (mixed kinds and lists), empty frames, and the
// rows-without-columns shape FromRows produces for empty maps.
func testFrames(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	frames := map[string]*frame.Frame{
		"empty":   frame.FromRows(nil),
		"no-cols": frame.FromRows([]value.Row{{}, {}, {}}),
		"typed": frame.FromRows([]value.Row{
			{"b": value.Bool(true), "i": value.Int(-42), "f": value.Float(3.5), "s": value.Str("rack"), "t": value.Time(time.Unix(100, 5)), "sp": value.Span(10, 20)},
			{"b": value.Bool(false), "i": value.Int(1 << 40), "f": value.Float(-0.25), "s": value.Str(""), "t": value.TimeNanos(-7), "sp": value.Span(-5, 5)},
		}),
		"presence": frame.FromRows([]value.Row{
			{"x": value.Int(1)},
			{"y": value.Str("only-y")},
			{"x": value.Int(3), "y": value.Str("both")},
		}),
		"boxed": frame.FromRows([]value.Row{
			{"m": value.Int(1), "l": value.StrList("a", "b")},
			{"m": value.Str("mixed"), "l": value.List(value.Int(1), value.Null(), value.Float(2.5))},
			{"m": value.Null(), "l": value.Null()},
		}),
	}
	// Low-cardinality strings travel as dictionary columns: one whose
	// strings all repeat, one with absent cells.
	frames["dict"] = frame.FromRows([]value.Row{
		{"rack": value.Str("r1"), "job": value.Str("j\"1")},
		{"rack": value.Str("r2")},
		{"rack": value.Str("r1"), "job": value.Str("j\"1")},
		{"rack": value.Str("r2"), "job": value.Str("")},
		{"rack": value.Str("r1")},
		{"rack": value.Str("r1"), "job": value.Str("j\"1")},
	})
	// A tall frame exercises multi-word presence bitmaps (>64 rows).
	tall := make([]value.Row, 130)
	for i := range tall {
		r := value.Row{"i": value.Int(int64(i))}
		if i%3 == 0 {
			r["sparse"] = value.Float(float64(i) / 2)
		}
		tall[i] = r
	}
	frames["tall-presence"] = frame.FromRows(tall)
	return frames
}

func framesEqual(t *testing.T, name string, a, b *frame.Frame) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape mismatch: (%d,%d) vs (%d,%d)", name, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for ci := 0; ci < a.NumCols(); ci++ {
		ca, cb := a.ColAt(ci), b.ColAt(ci)
		if ca.Name() != cb.Name() || ca.Kind() != cb.Kind() {
			t.Fatalf("%s: column %d header mismatch: %s/%v vs %s/%v", name, ci, ca.Name(), ca.Kind(), cb.Name(), cb.Kind())
		}
		for i := 0; i < a.NumRows(); i++ {
			if ca.Present(i) != cb.Present(i) {
				t.Fatalf("%s: %s[%d] presence mismatch", name, ca.Name(), i)
			}
			va, vb := ca.Value(i), cb.Value(i)
			if !va.Equal(vb) {
				t.Fatalf("%s: %s[%d] = %v, decoded %v", name, ca.Name(), i, va, vb)
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for name, f := range testFrames(t) {
		buf := AppendFrame(nil, f)
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: decoded %d of %d bytes", name, n, len(buf))
		}
		framesEqual(t, name, f, got)
	}
}

// TestFrameRoundTripConcatenated checks the self-delimiting property the
// exchange relies on: concatenated encodings decode back one by one.
func TestFrameRoundTripConcatenated(t *testing.T) {
	all := testFrames(t)
	var buf []byte
	var order []*frame.Frame
	for _, f := range all {
		buf = AppendFrame(buf, f)
		order = append(order, f)
	}
	for i, want := range order {
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		framesEqual(t, "concat", want, got)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

// TestAppendSelectionMatchesGather: encoding a selection in place writes
// the bytes that gathering it first and encoding the gathered frame would,
// hash vector included, for plain, coded, boxed, span, bool and float
// columns with absent cells, a column whose selected cells are all absent,
// and empty, whole, reversed and repeating selections.
func TestAppendSelectionMatchesGather(t *testing.T) {
	const n = 150 // more than two presence words
	rows := make([]value.Row, n)
	for i := range rows {
		r := value.Row{
			"coded": value.Str(fmt.Sprintf("rack-%d", i%4)),
			"span":  value.Span(int64(i), int64(2*i+1)),
			"bool":  value.Bool(i%3 == 0),
		}
		if i%7 != 0 {
			r["plain"] = value.Str(fmt.Sprintf("node%06d", i))
			r["float"] = value.Float(float64(i) / 4)
		}
		if i%5 == 0 {
			delete(r, "coded")
		}
		switch i % 3 {
		case 0:
			r["boxed"] = value.Int(int64(i))
		case 1:
			r["boxed"] = value.StrList("a", fmt.Sprint(i))
		}
		if i >= 100 {
			r["late"] = value.Int(int64(i))
		}
		rows[i] = r
	}
	f := frame.FromRows(rows)
	if !f.Col("coded").DictEncoded() || f.Col("plain").DictEncoded() || f.Col("boxed").Kind() != value.KindNull {
		t.Fatal("test frame does not hold a coded, a plain and a boxed column")
	}
	hashes := make([]uint64, n)
	for i := range hashes {
		hashes[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	all, rev, early, repeat := make([]int32, n), make([]int32, n), make([]int32, 0, 100), make([]int32, 0, 3*n)
	for i := range all {
		all[i], rev[i] = int32(i), int32(n-1-i)
		if i < 100 {
			early = append(early, int32(i)) // "late" absent throughout
		}
		repeat = append(repeat, int32(i%9), int32(i%9), int32(n-1-i%11))
	}
	sels := map[string][]int32{
		"empty": {}, "all": all, "reversed": rev, "all-absent": early, "repeated": repeat,
		"one-row": {7}, "present-only": {1, 2, 3, 4, 5, 6, 8, 9},
	}
	for name, sel := range sels {
		for _, h := range [][]uint64{hashes, nil} {
			var hsel []uint64
			if h != nil {
				for _, i := range sel {
					hsel = append(hsel, h[i])
				}
			}
			got, want := AppendSelection(nil, f, h, sel), AppendBatch(nil, f.Gather(sel), hsel)
			if !slices.Equal(got, want) {
				t.Errorf("%s (hashes %v): AppendSelection wrote %d bytes, the gathered batch %d, not the same", name, h != nil, len(got), len(want))
			}
		}
	}
	if got, want := AppendSelection(nil, f, hashes, nil), AppendBatch(nil, f, hashes); !slices.Equal(got, want) {
		t.Error("AppendSelection with no selection differs from AppendBatch")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	f := testFrames(t)["typed"]
	hashes := make([]uint64, f.NumRows())
	for i := range hashes {
		hashes[i] = uint64(i)*0x9e3779b97f4a7c15 + 7
	}
	for _, h := range [][]uint64{hashes, nil} {
		buf := AppendBatch(nil, f, h)
		got, gh, n, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("decoded %d of %d bytes", n, len(buf))
		}
		framesEqual(t, "batch", f, got)
		if len(gh) != len(h) {
			t.Fatalf("hash count %d, want %d", len(gh), len(h))
		}
		for i := range h {
			if gh[i] != h[i] {
				t.Fatalf("hash[%d] = %d, want %d", i, gh[i], h[i])
			}
		}
	}
}

func TestBatchHashLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for mismatched hash vector")
		}
	}()
	AppendBatch(nil, testFrames(t)["typed"], []uint64{1})
}

// TestDecodeTruncated feeds every strict prefix of every valid encoding to
// the decoder: all must error, none may panic or succeed.
func TestDecodeTruncated(t *testing.T) {
	for name, f := range testFrames(t) {
		buf := AppendFrame(nil, f)
		for cut := 0; cut < len(buf); cut++ {
			if _, n, err := DecodeFrame(buf[:cut]); err == nil && n != cut {
				t.Fatalf("%s: prefix %d/%d decoded without error", name, cut, len(buf))
			}
		}
		bbuf := AppendBatch(nil, f, nil)
		for cut := 0; cut < len(bbuf); cut++ {
			if _, _, n, err := DecodeBatch(bbuf[:cut]); err == nil && n != cut {
				t.Fatalf("%s: batch prefix %d/%d decoded without error", name, cut, len(bbuf))
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":          nil,
		"bad-marker":     {0x00, 0x01},
		"batch-as-frame": AppendBatch(nil, frame.FromRows(nil), nil),
		"huge-rows":      append([]byte{frameMarker}, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01),
		"huge-cols":      append([]byte{frameMarker}, 0x00, 0xff, 0xff, 0xff, 0xff, 0x0f),
	}
	for name, b := range cases {
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted corrupt input", name)
		}
	}
	if _, _, _, err := DecodeBatch(AppendFrame(nil, frame.FromRows(nil))); err == nil {
		t.Error("DecodeBatch accepted a bare frame")
	}
}

// duplicateColumnPayload is a 1-row frame that names column "a" twice, as
// int 7 and int 9. No encoder produces it; a decoder that accepted it would
// emit a duplicate JSON key and resolve Col("a") to either column.
var duplicateColumnPayload = []byte{frameMarker, 1, 2,
	1, 'a', byte(value.KindInt), 0, 14,
	1, 'a', byte(value.KindInt), 0, 18}

func TestDecodeRejectsDuplicateColumns(t *testing.T) {
	if _, _, err := DecodeFrame(duplicateColumnPayload); err == nil || !strings.Contains(err.Error(), `duplicate column "a"`) {
		t.Errorf("DecodeFrame of a frame naming a column twice: err = %v", err)
	}
	one := append([]byte{frameMarker, 1, 1}, duplicateColumnPayload[3:8]...)
	if _, _, err := DecodeFrame(one); err != nil {
		t.Errorf("the payload's first column alone should decode: %v", err)
	}
}

// badDictCodePayload is a 2-row frame whose dictionary column has one
// entry but codes its second cell 1. No encoder produces it; decoding it
// must fail rather than index past the dictionary.
var badDictCodePayload = []byte{frameMarker, 2, 1,
	1, 'k', dictString, 0, 1, 1, 'a', 0, 1}

func TestDecodeRejectsBadDictCode(t *testing.T) {
	if _, _, err := DecodeFrame(badDictCodePayload); err == nil || !strings.Contains(err.Error(), "beyond 1 entries") {
		t.Errorf("DecodeFrame of a code past the dictionary: err = %v", err)
	}
	good := slices.Clone(badDictCodePayload)
	good[len(good)-1] = 0
	f, _, err := DecodeFrame(good)
	if err != nil || f.Col("k").Value(1).StrVal() != "a" || !f.Col("k").DictEncoded() {
		t.Errorf("the same payload coding both cells 0 should decode to a dictionary column: %v", err)
	}
	got, _, err := DecodeFrame(AppendFrame(nil, testFrames(t)["dict"]))
	if err != nil || !got.Col("rack").DictEncoded() || !got.Col("job").DictEncoded() {
		t.Errorf("low-cardinality columns should travel as dictionaries (err %v)", err)
	}
}

// duplicateEntryPayload is a 2-row frame whose dictionary column lists
// "a" twice and codes one cell to each copy. No encoder produces it; a
// decoder that accepted it would hand kernels two codes for one key, which
// group and join on codes would split in two.
var duplicateEntryPayload = []byte{frameMarker, 2, 1,
	1, 'k', dictString, 0, 2, 1, 'a', 1, 'a', 0, 1}

func TestDecodeRejectsDuplicateDictEntries(t *testing.T) {
	if _, _, err := DecodeFrame(duplicateEntryPayload); err == nil || !strings.Contains(err.Error(), `entry 1 repeats "a"`) {
		t.Errorf("DecodeFrame of a dictionary listing an entry twice: err = %v", err)
	}
	distinct := slices.Clone(duplicateEntryPayload)
	distinct[11] = 'b'
	f, _, err := DecodeFrame(distinct)
	if err != nil || f.Col("k").Value(1).StrVal() != "b" {
		t.Errorf("the same payload with distinct entries should decode: %v", err)
	}
}

// boolTwoPayload is a 2-row bool frame whose second cell is stored as 2.
// No encoder produces it; a decoder that accepted it would hold two true
// cells that kernels, comparing storage, find unequal.
var boolTwoPayload = []byte{frameMarker, 2, 1,
	1, 'b', byte(value.KindBool), 0, 2, 4}

// reversedSpanPayload is a 1-row span frame whose cell ends (1) before it
// starts (2). No encoder produces it: value.Span orders its bounds, so a
// decoder that accepted it would hold a cell kernels find unequal to the
// same span stored in order.
var reversedSpanPayload = []byte{frameMarker, 1, 1,
	1, 's', byte(value.KindSpan), 0, 4, 2}

func TestDecodeRejectsNonCanonicalCells(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload []byte
		err     string
		fixed   byte // a last byte that makes the payload canonical
	}{
		{"bool stored as 2", boolTwoPayload, "bool cell 1 stored as 2", 2},
		{"reversed span", reversedSpanPayload, "span cell 0 ends at 1 before its start 2", 6},
	} {
		if _, _, err := DecodeFrame(c.payload); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("DecodeFrame of a %s: err = %v", c.name, err)
		}
		canonical := slices.Clone(c.payload)
		canonical[len(canonical)-1] = c.fixed
		if _, _, err := DecodeFrame(canonical); err != nil {
			t.Errorf("the %s payload made canonical should decode: %v", c.name, err)
		}
	}
}

// TestDecodeBitFlips flips each byte of a valid encoding; decoding must
// never panic (errors and value changes are fine — this guards crash
// safety, the round-trip tests guard exactness).
func TestDecodeBitFlips(t *testing.T) {
	buf := AppendFrame(nil, testFrames(t)["presence"])
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x5a
		DecodeFrame(mut) // must not panic
	}
}

// TestDecodePlainStringsAllocsFlat: a plain string column (unique keys,
// which no dictionary codes) decodes into one arena, its bytes copied
// once into a buffer sized by a first pass over the lengths, so decoding
// costs the same number of allocations at 1k and at 16k rows, not one
// more per cell. The decoded cells equal the encoded ones, absent cells
// and empty strings included.
func TestDecodePlainStringsAllocsFlat(t *testing.T) {
	encode := func(n int) (*frame.Frame, []byte) {
		rows := make([]value.Row, n)
		for i := range rows {
			switch {
			case i%7 == 0:
				rows[i] = value.Row{}
			case i == 1:
				rows[i] = value.Row{"id": value.Str("")}
			default:
				rows[i] = value.Row{"id": value.Str(fmt.Sprintf("node%08d", i))}
			}
		}
		f := frame.FromRows(rows)
		if f.Col("id").DictEncoded() {
			t.Fatalf("%d unique keys were dictionary-encoded", n)
		}
		return f, AppendFrame(nil, f)
	}
	count := func(n int) float64 {
		f, b := encode(n)
		back, _, err := DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		want, got := f.Col("id"), back.Col("id")
		for i := 0; i < n; i++ {
			if want.Present(i) != got.Present(i) || !want.Value(i).Equal(got.Value(i)) {
				t.Fatalf("%d rows: cell %d decoded as %v, want %v", n, i, got.Value(i), want.Value(i))
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := DecodeFrame(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a16 := count(1<<10), count(1<<14); a1 != a16 {
		t.Errorf("decoding a plain string column: %.0f allocations at 1k rows, %.0f at 16k; want the same", a1, a16)
	}
}
