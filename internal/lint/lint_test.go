package lint

import (
	"encoding/json"
	"go/token"
	"reflect"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text  string
		names []string
		ok    bool
	}{
		{"// regular comment", nil, false},
		{"//sjvet:ignore", []string{"*"}, true},
		{"//sjvet:ignore -- reason only", []string{"*"}, true},
		{"//sjvet:ignore purity", []string{"purity"}, true},
		{"//sjvet:ignore purity,determinism", []string{"purity", "determinism"}, true},
		{"//sjvet:ignore purity, determinism -- both are fine here", []string{"purity", "determinism"}, true},
		{"//sjvet:ignore lockdiscipline -- the channel is buffered to len(workers)", []string{"lockdiscipline"}, true},
		{"// sjvet:ignore purity", nil, false}, // directives must not have a space after //
	}
	for _, c := range cases {
		names, ok := parseIgnore(c.text)
		if ok != c.ok || (ok && !reflect.DeepEqual(names, c.names)) {
			t.Errorf("parseIgnore(%q) = %v, %v; want %v, %v", c.text, names, ok, c.names, c.ok)
		}
	}
}

func TestSuppressedLineMatching(t *testing.T) {
	fileScope := func(names ...string) directive {
		return directive{names: names, scopeLo: -1, scopeHi: -1}
	}
	s := &suppressions{byLine: map[string]map[int][]directive{
		"a.go": {10: {fileScope("purity")}, 20: {fileScope("*")}},
	}}
	mk := func(file string, line int, analyzer string) Finding {
		return Finding{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer}
	}
	if !s.suppressed(mk("a.go", 10, "purity")) {
		t.Error("same-line directive should suppress")
	}
	if !s.suppressed(mk("a.go", 11, "purity")) {
		t.Error("line-above directive should suppress")
	}
	if s.suppressed(mk("a.go", 12, "purity")) {
		t.Error("directive two lines above must not suppress")
	}
	if s.suppressed(mk("a.go", 10, "determinism")) {
		t.Error("directive naming another analyzer must not suppress")
	}
	if !s.suppressed(mk("a.go", 21, "leakcheck")) {
		t.Error("bare directive should suppress every analyzer")
	}
	if s.suppressed(mk("b.go", 10, "purity")) {
		t.Error("directives are per-file")
	}
}

// TestSuppressedScopeMatching pins the function-scope rule: a directive
// carries the byte-offset range of the innermost function body it sits in,
// and only suppresses findings whose offset falls inside that range — a
// directive inside a closure must not silence the enclosing body even when
// the finding is on an adjacent line.
func TestSuppressedScopeMatching(t *testing.T) {
	scoped := directive{names: []string{"purity"}, scopeLo: 100, scopeHi: 200}
	s := &suppressions{byLine: map[string]map[int][]directive{
		"a.go": {10: {scoped}},
	}}
	mk := func(line, offset int) Finding {
		return Finding{Pos: token.Position{Filename: "a.go", Line: line, Offset: offset}, Analyzer: "purity"}
	}
	if !s.suppressed(mk(10, 150)) {
		t.Error("finding inside the directive's function scope should be suppressed")
	}
	if s.suppressed(mk(11, 250)) {
		t.Error("finding outside the directive's function scope must not be suppressed")
	}
	if s.suppressed(mk(11, 50)) {
		t.Error("finding before the directive's function scope must not be suppressed")
	}
}

// TestJSONRoundTrip asserts the -json schema is stable and lossless: every
// finding field survives encode/decode, and the wire keys are exactly
// {file, line, column, analyzer, message}.
func TestJSONRoundTrip(t *testing.T) {
	in := []Finding{
		{Pos: token.Position{Filename: "internal/rdd/rdd.go", Line: 12, Column: 3}, Analyzer: "purity", Message: `closure assigns to captured variable "sum"`},
		{Pos: token.Position{Filename: "internal/engine/engine.go", Line: 40, Column: 9}, Analyzer: "determinism", Message: "calls time.Now"},
	}
	data, err := EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, ToJSON(in)) {
		t.Errorf("round trip diverged: %v vs %v", out, ToJSON(in))
	}

	var raw []map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	wantKeys := map[string]bool{"file": true, "line": true, "column": true, "analyzer": true, "message": true}
	for _, obj := range raw {
		if len(obj) != len(wantKeys) {
			t.Fatalf("wire object has keys %v, want exactly %v", obj, wantKeys)
		}
		for k := range obj {
			if !wantKeys[k] {
				t.Fatalf("unexpected wire key %q", k)
			}
		}
	}

	// An empty finding set must encode as [] (a JSON array), not null.
	empty, err := EncodeJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(empty) != "[]" {
		t.Errorf("empty findings encode as %s, want []", empty)
	}
}

// TestAnalyzersComplete pins the suite composition: the seven analyzers
// that each catch a mutation of the real tree (TestRealTreeWitnesses),
// including the flow-sensitive pair (errflow, leakcheck) built on the CFG
// layer.
func TestAnalyzersComplete(t *testing.T) {
	want := []string{"ctxflow", "determinism", "errflow", "frameimmut", "leakcheck", "lockdiscipline", "purity"}
	if got := AnalyzerNames(Analyzers()); !reflect.DeepEqual(got, want) {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}
