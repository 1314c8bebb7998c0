package lint

import (
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
		{"//sjvet:ignore ctxflow", []string{"ctxflow"}, true},
		{"//sjvet:ignore ctxflow,determinism", []string{"ctxflow", "determinism"}, true},
		{"//sjvet:ignore ctxflow, determinism -- both are fine here", []string{"ctxflow", "determinism"}, true},
		{"//sjvet:ignore lockdiscipline -- the channel is buffered to len(workers)", []string{"lockdiscipline"}, true},
		{"// sjvet:ignore ctxflow", nil, false}, // directives must not have a space after //
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
		"a.go": {10: {fileScope("ctxflow")}, 20: {fileScope("*")}},
	}}
	mk := func(file string, line int, analyzer string) Finding {
		return Finding{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer}
	}
	if !s.suppressed(mk("a.go", 10, "ctxflow")) {
		t.Error("same-line directive should suppress")
	}
	if !s.suppressed(mk("a.go", 11, "ctxflow")) {
		t.Error("line-above directive should suppress")
	}
	if s.suppressed(mk("a.go", 12, "ctxflow")) {
		t.Error("directive two lines above must not suppress")
	}
	if s.suppressed(mk("a.go", 10, "determinism")) {
		t.Error("directive naming another analyzer must not suppress")
	}
	if !s.suppressed(mk("a.go", 21, "leakcheck")) {
		t.Error("bare directive should suppress every analyzer")
	}
	if s.suppressed(mk("b.go", 10, "ctxflow")) {
		t.Error("directives are per-file")
	}
}

// TestSuppressedScopeMatching pins the function-scope rule: a directive
// carries the byte-offset range of the innermost function body it sits in,
// and only suppresses findings whose offset falls inside that range — a
// directive inside a closure must not silence the enclosing body even when
// the finding is on an adjacent line.
func TestSuppressedScopeMatching(t *testing.T) {
	scoped := directive{names: []string{"ctxflow"}, scopeLo: 100, scopeHi: 200}
	s := &suppressions{byLine: map[string]map[int][]directive{
		"a.go": {10: {scoped}},
	}}
	mk := func(line, offset int) Finding {
		return Finding{Pos: token.Position{Filename: "a.go", Line: line, Offset: offset}, Analyzer: "ctxflow"}
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

// TestAnalyzersComplete pins the suite composition: the six analyzers
// that each catch a mutation of the real tree (TestRealTreeWitnesses),
// including the flow-sensitive pair (errflow, leakcheck) built on the CFG
// layer.
func TestAnalyzersComplete(t *testing.T) {
	want := []string{"ctxflow", "determinism", "errflow", "frameimmut", "leakcheck", "lockdiscipline"}
	var got []string
	for _, a := range Analyzers() {
		got = append(got, a.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyzers() = %v, want %v", got, want)
	}
}
