package semantics

import (
	"encoding/json"
	"testing"
)

func TestRelationTypeRoundTrip(t *testing.T) {
	for _, r := range []RelationType{Domain, Value} {
		got, err := RelationFromString(r.String())
		if err != nil || got != r {
			t.Errorf("relation round trip %v: %v %v", r, got, err)
		}
	}
	if _, err := RelationFromString("middle"); err == nil {
		t.Error("bad relation should fail")
	}
	data, err := json.Marshal(Value)
	if err != nil || string(data) != `"value"` {
		t.Errorf("marshal relation: %s %v", data, err)
	}
	var r RelationType
	if err := json.Unmarshal([]byte(`"domain"`), &r); err != nil || r != Domain {
		t.Errorf("unmarshal relation: %v %v", r, err)
	}
	if err := json.Unmarshal([]byte(`"wat"`), &r); err == nil {
		t.Error("bad relation JSON should fail")
	}
	if err := json.Unmarshal([]byte(`5`), &r); err == nil {
		t.Error("numeric relation JSON should fail")
	}
}

func TestRegisterDimension(t *testing.T) {
	d := NewDictionary(nil)
	dim := Dimension{Name: "time", Ordered: true, Continuous: true}
	if err := d.RegisterDimension(dim); err != nil {
		t.Fatal(err)
	}
	// Identical re-registration OK.
	if err := d.RegisterDimension(dim); err != nil {
		t.Errorf("identical re-registration: %v", err)
	}
	// Homonym fails.
	if err := d.RegisterDimension(Dimension{Name: "time", Ordered: false}); err == nil {
		t.Error("homonym should fail")
	}
	if err := d.RegisterDimension(Dimension{Name: ""}); err == nil {
		t.Error("empty name should fail")
	}
	if err := d.RegisterDimension(Dimension{Name: "a/b"}); err == nil {
		t.Error("composite syntax should fail")
	}
}

func TestLookupDimensionComposites(t *testing.T) {
	d := DefaultDictionary()
	if dim, ok := d.LookupDimension("time"); !ok || !dim.Ordered || !dim.Continuous {
		t.Errorf("time = %+v %v", dim, ok)
	}
	if dim, ok := d.LookupDimension("compute_node"); !ok || dim.Ordered || dim.Continuous {
		t.Errorf("compute_node = %+v %v", dim, ok)
	}
	// Rate dimension: ordered (numerator ordered), continuous.
	rate, ok := d.LookupDimension("instructions/time_duration")
	if !ok || !rate.Ordered || !rate.Continuous {
		t.Errorf("rate dim = %+v %v", rate, ok)
	}
	// List dimension: unordered, discrete.
	l, ok := d.LookupDimension("list<compute_node>")
	if !ok || l.Ordered || l.Continuous {
		t.Errorf("list dim = %+v %v", l, ok)
	}
	if _, ok := d.LookupDimension("list<bogus>"); ok {
		t.Error("list of unknown dim should fail")
	}
	if _, ok := d.LookupDimension("bogus/time"); ok {
		t.Error("rate with unknown dim should fail")
	}
	if _, ok := d.LookupDimension("nope"); ok {
		t.Error("unknown dim should fail")
	}
}

func TestValidateEntry(t *testing.T) {
	d := DefaultDictionary()
	good := []struct {
		col string
		e   Entry
	}{
		{"timestamp", TimeDomain()},
		{"timespan", SpanDomain()},
		{"node_id", IDDomain("compute_node")},
		{"nodelist", IDListDomain("compute_node")},
		{"node_temp", ValueEntry("temperature", "degrees_celsius")},
		{"ipc", ValueEntry("instructions/time_duration", "instructions/seconds")},
		{"heat", ValueEntry("temperature_difference", "delta_celsius")},
	}
	for _, g := range good {
		if err := d.ValidateEntry(g.col, g.e); err != nil {
			t.Errorf("ValidateEntry(%q, %v): %v", g.col, g.e, err)
		}
	}
	bad := []struct {
		col string
		e   Entry
	}{
		{"", TimeDomain()},
		{"x", DomainEntry("nope", "identifier")},
		{"x", DomainEntry("time", "furlongs")},
		{"x", ValueEntry("temperature", "watts")},
	}
	for _, b := range bad {
		if err := d.ValidateEntry(b.col, b.e); err == nil {
			t.Errorf("ValidateEntry(%q, %v) should fail", b.col, b.e)
		}
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := NewSchema(
		"timestamp", TimeDomain(),
		"node_id", IDDomain("compute_node"),
		"node_temp", ValueEntry("temperature", "degrees_celsius"),
		"node_power", ValueEntry("power", "watts"),
	)
	wantCols := []string{"node_id", "node_power", "node_temp", "timestamp"}
	for i, c := range s.Columns() {
		if c != wantCols[i] {
			t.Fatalf("Columns() = %v", s.Columns())
		}
	}
	if got := s.DomainColumns(); len(got) != 2 || got[0] != "node_id" || got[1] != "timestamp" {
		t.Errorf("DomainColumns = %v", got)
	}
	if got := s.ValueColumns(); len(got) != 2 {
		t.Errorf("ValueColumns = %v", got)
	}
	if got := s.DomainDimensions(); len(got) != 2 || got[0] != "compute_node" || got[1] != "time" {
		t.Errorf("DomainDimensions = %v", got)
	}
	if got := s.ColumnsOnDimension(Value, "power"); len(got) != 1 || got[0] != "node_power" {
		t.Errorf("ColumnsOnDimension = %v", got)
	}
	if !s.HasDomainDimension("time") || s.HasDomainDimension("power") {
		t.Error("HasDomainDimension")
	}
	if !s.HasValueDimension("power") || s.HasValueDimension("time") {
		t.Error("HasValueDimension")
	}
}

func TestSchemaSharedAndMerge(t *testing.T) {
	a := NewSchema(
		"timestamp", TimeDomain(),
		"node_id", IDDomain("compute_node"),
		"temp", ValueEntry("temperature", "degrees_celsius"),
	)
	b := NewSchema(
		"node", IDDomain("compute_node"),
		"rack", IDDomain("rack"),
	)
	shared := a.SharedDomainDimensions(b)
	if len(shared) != 1 || shared[0] != "compute_node" {
		t.Errorf("SharedDomainDimensions = %v", shared)
	}
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 5 {
		t.Errorf("merged schema size = %d", len(m))
	}
	// Conflict: same column different entry.
	c := NewSchema("timestamp", IDDomain("compute_node"))
	if _, err := a.Merge(c); err == nil {
		t.Error("conflicting merge should fail")
	}
	// Same column identical entry is fine.
	d := NewSchema("timestamp", TimeDomain())
	if _, err := a.Merge(d); err != nil {
		t.Errorf("identical-column merge: %v", err)
	}
}

func TestSchemaEqualCloneFingerprint(t *testing.T) {
	a := NewSchema("x", TimeDomain(), "y", ValueEntry("power", "watts"))
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be equal")
	}
	b["z"] = IDDomain("rack")
	if a.Equal(b) {
		t.Error("modified clone should differ")
	}
	if a.Equal(NewSchema("x", TimeDomain(), "y", ValueEntry("power", "kilowatts"))) {
		t.Error("different units should differ")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("fingerprints should differ")
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Error("fingerprint should be deterministic")
	}
}

func TestSchemaValidate(t *testing.T) {
	d := DefaultDictionary()
	ok := NewSchema("t", TimeDomain(), "p", ValueEntry("power", "watts"))
	if err := ok.Validate(d); err != nil {
		t.Errorf("valid schema: %v", err)
	}
	bad := NewSchema("t", DomainEntry("bogus", "identifier"))
	if err := bad.Validate(d); err == nil {
		t.Error("invalid schema should fail")
	}
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := NewSchema(
		"timestamp", TimeDomain(),
		"node_id", IDDomain("compute_node"),
		"temp", ValueEntry("temperature", "degrees_celsius"),
	)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Schema
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip: %v != %v", got, s)
	}
}

func TestNewSchemaPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("odd", func() { NewSchema("a") })
	assertPanics("non-string", func() { NewSchema(1, TimeDomain()) })
	assertPanics("non-entry", func() { NewSchema("a", 2) })
}

func TestSchemaString(t *testing.T) {
	s := NewSchema("t", TimeDomain())
	want := "{t: domain:time(datetime)}"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}

func TestDimensionNames(t *testing.T) {
	d := DefaultDictionary()
	names := d.DimensionNames()
	if len(names) < 10 {
		t.Fatalf("expected many default dimensions, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}
