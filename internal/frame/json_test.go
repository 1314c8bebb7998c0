package frame

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"scrubjay/internal/value"
)

// TestAppendRowJSONMatches is the property that keeps columnar NDJSON
// streaming honest: for arbitrary rows — nasty strings, NaN/Inf floats,
// explicit nulls, lists, absent cells — AppendRowJSON must produce exactly
// the bytes encoding/json produces for the boxed value.Row. Each trial
// also renders a dictionary-encoded column of nasty strings, drawn from a
// second source so the arbitrary rows stay what they were.
func TestAppendRowJSONMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	drng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		rows := randRows(rng, 1+rng.Intn(10))
		checkRowJSON(t, trial, FromRows(rows), rows)
		pool := []string{randString(drng), randString(drng), "<&\u2028>\"\xff"}
		drows := catRows(drng, 8+drng.Intn(10), pool)
		checkRowJSON(t, trial, dictFrame(t, drows), drows)
	}
}

// checkRowJSON fails unless every row of f, pivoted from rows, renders as
// encoding/json renders the row.
func checkRowJSON(t *testing.T, trial int, f *Frame, rows []value.Row) {
	t.Helper()
	keys := f.EncodedKeys()
	for i, r := range rows {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := f.AppendRowJSON(nil, i, keys)
		if string(got) != string(want) {
			t.Fatalf("trial %d row %d:\n got %s\nwant %s", trial, i, got, want)
		}
	}
}

// TestAppendRowJSONEdgeCases pins the encodings that are easy to get
// subtly wrong: float formats at the e/f boundary, exponent trimming,
// HTML-escaped keys, and RFC3339Nano truncation.
func TestAppendRowJSONEdgeCases(t *testing.T) {
	rows := []value.Row{
		{
			"f1": value.Float(1e-7), "f2": value.Float(1e21), "f3": value.Float(-2.5e-9),
			"f4": value.Float(0.0), "f5": value.Float(math.Copysign(0, -1)),
			"f6": value.Float(math.Inf(-1)), "f7": value.Float(math.NaN()),
			"f8": value.Float(123456789.123456789),
		},
		{
			"<key>&": value.Str("<script>&\u2028\u2029\xff"),
			"t1":     value.TimeNanos(0),
			"t2":     value.TimeNanos(1500000000123456789),
			"sp":     value.Span(10, 1e9),
			"l":      value.List(value.Null(), value.Float(math.NaN()), value.Str("<>")),
			"n":      value.Null(),
			"b":      value.Bool(true),
		},
	}
	f := FromRows(rows)
	keys := f.EncodedKeys()
	for i, r := range rows {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := f.AppendRowJSON(nil, i, keys)
		if string(got) != string(want) {
			t.Fatalf("row %d:\n got %s\nwant %s", i, got, want)
		}
	}
}
