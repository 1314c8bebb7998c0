package stats

import (
	"encoding/json"
	"fmt"
	"testing"

	"scrubjay/internal/frame"
	"scrubjay/internal/semantics"
	"scrubjay/internal/value"
)

func TestDerivationKey(t *testing.T) {
	got := DerivationKey("natural_join", []string{"b", "a"}, []string{"c"})
	if got != "natural_join|a+b|c" {
		t.Errorf("DerivationKey = %q", got)
	}
	if DerivationKey("derive_heat") != "derive_heat" {
		t.Errorf("no-input key should be the bare name")
	}
}

func TestStoreNilSafe(t *testing.T) {
	var s *Store
	if s.Epoch() != 0 {
		t.Error("nil store epoch")
	}
	if _, ok := s.Table("x"); ok {
		t.Error("nil store table lookup")
	}
	if _, ok := s.Derivation("x"); ok {
		t.Error("nil store derivation lookup")
	}
	s.SetTable("x", TableStats{Rows: 1})
	s.Observe("x", DerivationStats{Observations: 1})
	s.IngestFrames("x", nil, semantics.Schema{})
}

func TestSetTableEpoch(t *testing.T) {
	s := NewStore()
	s.SetTable("a", TableStats{Rows: 10})
	if s.Epoch() != 1 {
		t.Fatalf("epoch after first table = %d", s.Epoch())
	}
	// Same facts: no bump.
	s.SetTable("a", TableStats{Rows: 10})
	if s.Epoch() != 1 {
		t.Errorf("unchanged facts bumped epoch to %d", s.Epoch())
	}
	s.SetTable("a", TableStats{Rows: 20})
	if s.Epoch() != 2 {
		t.Errorf("changed facts should bump epoch, got %d", s.Epoch())
	}
}

func TestObserveEpochHysteresis(t *testing.T) {
	s := NewStore()
	key := DerivationKey("natural_join", []string{"a"}, []string{"b"})
	s.Observe(key, DerivationStats{Observations: 1, RowsIn: 100, RowsOut: 100})
	e1 := s.Epoch()
	if e1 == 0 {
		t.Fatal("new key should bump epoch")
	}
	// Steady-state: same selectivity, no bump.
	for i := 0; i < 10; i++ {
		s.Observe(key, DerivationStats{Observations: 1, RowsIn: 100, RowsOut: 100})
	}
	if s.Epoch() != e1 {
		t.Errorf("steady selectivity bumped epoch %d -> %d", e1, s.Epoch())
	}
	// Big drift: selectivity collapses, epoch must move.
	for i := 0; i < 50; i++ {
		s.Observe(key, DerivationStats{Observations: 1, RowsIn: 1000, RowsOut: 10})
	}
	if s.Epoch() == e1 {
		t.Error("large selectivity drift should bump epoch")
	}
	// Exact key recorded under the name bucket too.
	if d, ok := s.Derivation("natural_join"); !ok || d.Observations == 0 {
		t.Error("name-aggregated bucket missing")
	}
	// Fallback: unseen input sets resolve through the name bucket.
	if _, ok := s.Derivation(DerivationKey("natural_join", []string{"x"}, []string{"y"})); !ok {
		t.Error("name-bucket fallback failed")
	}
}

func TestIngestFrames(t *testing.T) {
	schema := semantics.NewSchema(
		"node", semantics.IDDomain("compute_node"),
		"temp", semantics.ValueEntry("temperature", "degrees_celsius"),
	)
	// Two frames: distinct counts and ranges span them.
	frames := []*frame.Frame{
		frame.FromRows([]value.Row{
			value.NewRow("node", value.Str("n1"), "temp", value.Float(20)),
			value.NewRow("node", value.Str("n2"), "temp", value.Float(25)),
		}),
		frame.FromRows([]value.Row{
			value.NewRow("node", value.Str("n1"), "temp", value.Float(30)),
		}),
	}
	s := NewStore()
	s.IngestFrames("layout", frames, schema)
	ts, ok := s.Table("layout")
	if !ok || ts.Rows != 3 {
		t.Fatalf("table stats = %+v ok=%v", ts, ok)
	}
	if ts.Columns["node"].NDV != 2 {
		t.Errorf("node NDV = %d, want 2", ts.Columns["node"].NDV)
	}
	tc := ts.Columns["temp"]
	if tc.NDV != 3 || !tc.HasRange || tc.Min != 20 || tc.Max != 30 {
		t.Errorf("temp stats = %+v", tc)
	}

	// Join keys compare kind-strictly, so values that print alike are
	// still distinct.
	s.IngestFrames("kinds", []*frame.Frame{frame.FromRows([]value.Row{
		value.NewRow("node", value.Int(1)),
		value.NewRow("node", value.Str("1")),
		value.NewRow("node", value.Float(1)),
	})}, schema)
	if ts, _ := s.Table("kinds"); ts.Columns["node"].NDV != 3 {
		t.Errorf("NDV of Int(1), Str(\"1\"), Float(1) = %d, want 3", ts.Columns["node"].NDV)
	}

	// A dictionary-coded column counts its strings, not its codes; an
	// explicit null is one more value but no part of the range; an absent
	// cell is neither.
	var rows []value.Row
	for i := 0; i < 8; i++ {
		rows = append(rows, value.NewRow("node", value.Str([]string{"n1", "n2"}[i%2]), "temp", value.Float(float64(i))))
	}
	rows[3]["temp"] = value.Null()
	delete(rows[5], "temp")
	f := frame.FromRows(rows)
	if !f.Col("node").DictEncoded() {
		t.Fatal("node column is not dictionary-encoded")
	}
	s.IngestFrames("coded", []*frame.Frame{f}, schema)
	ts, _ = s.Table("coded")
	if ts.Rows != 8 || ts.Columns["node"].NDV != 2 {
		t.Errorf("coded stats = %+v", ts)
	}
	if tc := ts.Columns["temp"]; tc.NDV != 7 || !tc.HasRange || tc.Min != 0 || tc.Max != 7 {
		t.Errorf("temp with a null and an absent cell: stats = %+v, want NDV 7 over [0, 7]", tc)
	}
}

func TestEncodeDeterministicRoundTrip(t *testing.T) {
	// 40 tables and 40 derivations, inserted in reverse name order: an
	// encoding that lists either in map order matches the sorted
	// expectation below with odds of about 1 in 40!.
	const n = 40
	build := func() *Store {
		s := NewStore()
		for i := n - 1; i >= 0; i-- {
			s.SetTable(fmt.Sprintf("t%02d", i), TableStats{Rows: int64(i), Columns: map[string]ColumnStats{
				"b": {NDV: 2}, "a": {NDV: 1, Min: 0, Max: float64(i), HasRange: true},
			}})
			s.Observe(fmt.Sprintf("d%02d", i), DerivationStats{Observations: 1, RowsIn: int64(i), RowsOut: 1, Micros: 100})
		}
		return s
	}
	a, err := build().Encode()
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot{Epoch: build().Epoch()}
	for i := 0; i < n; i++ {
		want.Tables = append(want.Tables, tableEntry{Name: fmt.Sprintf("t%02d", i), Rows: int64(i), Columns: []columnEntry{
			{Name: "a", ColumnStats: ColumnStats{NDV: 1, Min: 0, Max: float64(i), HasRange: true}},
			{Name: "b", ColumnStats: ColumnStats{NDV: 2}},
		}})
		want.Derivs = append(want.Derivs, derivedEntry{Key: fmt.Sprintf("d%02d", i),
			DerivationStats: DerivationStats{Observations: 1, RowsIn: int64(i), RowsOut: 1, Micros: 100}})
	}
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(wantBytes) {
		t.Errorf("Encode is not the name-sorted snapshot:\n%s\nwant\n%s", a, wantBytes)
	}
	// Round trip preserves everything, including the epoch.
	s2 := NewStore()
	if err := s2.Decode(a); err != nil {
		t.Fatal(err)
	}
	c, err := s2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(c) {
		t.Errorf("round trip changed bytes:\n%s\nvs\n%s", a, c)
	}
	if s2.Epoch() != build().Epoch() {
		t.Errorf("epoch lost in round trip")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/stats.json"
	s := NewStore()
	s.SetTable("a", TableStats{Rows: 3})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ts, ok := loaded.Table("a"); !ok || ts.Rows != 3 {
		t.Errorf("loaded table = %+v ok=%v", ts, ok)
	}
	// Missing file: empty store, no error.
	empty, err := LoadFile(dir + "/missing.json")
	if err != nil {
		t.Fatal(err)
	}
	if tables, derivs := empty.Len(); tables != 0 || derivs != 0 {
		t.Errorf("missing file should load empty, got %d/%d", tables, derivs)
	}
}
