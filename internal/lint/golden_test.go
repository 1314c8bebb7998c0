package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one of the testdata modules.
func loadFixture(t *testing.T, rel string) *Module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", rel))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", rel, err)
	}
	return m
}

// formatFindings renders findings with module-root-relative paths, one per
// line — the golden-file format. Path-trace steps (flow-sensitive findings)
// follow their finding as indented lines, so the goldens pin the explanation,
// not just the verdict.
func formatFindings(m *Module, findings []Finding) string {
	rel := func(name string) string {
		if r, err := filepath.Rel(m.Root, name); err == nil {
			return filepath.ToSlash(r)
		}
		return name
	}
	var b strings.Builder
	for _, f := range findings {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", rel(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		for _, s := range f.Steps {
			fmt.Fprintf(&b, "    step %s:%d: %s\n", rel(s.Pos.Filename), s.Pos.Line, s.Text)
		}
	}
	return b.String()
}

// checkGolden compares got against the golden file, rewriting it when
// SJVET_UPDATE=1 is set.
func checkGolden(t *testing.T, goldenName, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", goldenName)
	if os.Getenv("SJVET_UPDATE") == "1" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with SJVET_UPDATE=1 to create): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenSrc runs the full suite over the per-analyzer fixture module and
// compares against the golden findings. Every analyzer must demonstrate at
// least one finding and every fixture package contributes a clean case.
func TestGoldenSrc(t *testing.T) {
	m := loadFixture(t, "src")
	findings := Run(m, Analyzers())
	checkGolden(t, "src.txt", formatFindings(m, findings))

	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range Analyzers() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %q produced no findings on the fixture module", a.Name)
		}
	}
}

// TestGoldenMulti runs the suite over the multi-package fixture module: the
// engine package carries exactly one finding for each analyzer that applies
// to it, the pipeline package is clean, and module-wide every analyzer
// fires at least once.
func TestGoldenMulti(t *testing.T) {
	m := loadFixture(t, "multi")
	findings := Run(m, Analyzers())
	checkGolden(t, "multi.txt", formatFindings(m, findings))

	perPkg := map[string]map[string]int{}
	total := map[string]int{}
	for _, f := range findings {
		rel, err := filepath.Rel(m.Root, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.ToSlash(filepath.Dir(rel))
		if perPkg[pkg] == nil {
			perPkg[pkg] = map[string]int{}
		}
		perPkg[pkg][f.Analyzer]++
		total[f.Analyzer]++
	}
	if len(perPkg["pipeline"]) != 0 {
		t.Errorf("clean package pipeline has findings: %v", perPkg["pipeline"])
	}
	for _, name := range []string{"ctxflow", "determinism", "lockdiscipline"} {
		if n := perPkg["engine"][name]; n != 1 {
			t.Errorf("dirty package engine: analyzer %q reported %d findings, want exactly 1", name, n)
		}
	}
	for _, a := range Analyzers() {
		if total[a.Name] == 0 {
			t.Errorf("analyzer %q produced no findings on the multi fixture module", a.Name)
		}
	}
}

// TestDeterministicOutput loads and analyzes each fixture module twice from
// scratch and byte-compares the rendered findings: they must be identical
// across runs so a failure reads the same every time.
func TestDeterministicOutput(t *testing.T) {
	for _, fixture := range []string{"multi", "src"} {
		t.Run(fixture, func(t *testing.T) { checkDeterministic(t, fixture) })
	}
}

func checkDeterministic(t *testing.T, fixture string) {
	render := func() string {
		m := loadFixture(t, fixture)
		return formatFindings(m, Run(m, Analyzers()))
	}
	t1, t2 := render(), render()
	if t1 != t2 {
		t.Errorf("output differs between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
	if t1 == "" {
		t.Error("determinism test rendered no findings; fixture should be dirty")
	}
}

// TestHotAnalyzerDeterminism loads and analyzes the src fixture twice with
// only the analyzers that consume interprocedural parameter facts and the
// CFG layer and byte-compares the rendered findings, so the summary, escape and
// flow layers stay map-iteration-free when run in isolation, not just under
// the full suite.
func TestHotAnalyzerDeterminism(t *testing.T) {
	var selected []*Analyzer
	for _, a := range Analyzers() {
		switch a.Name {
		case "leakcheck", "errflow":
			selected = append(selected, a)
		}
	}
	render := func() string {
		m := loadFixture(t, "src")
		return formatFindings(m, Run(m, selected))
	}
	r1, r2 := render(), render()
	if r1 != r2 {
		t.Errorf("leakcheck/errflow output differs between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
	}
	if r1 == "" {
		t.Error("summary-driven analyzers rendered no findings; the src fixture should be dirty")
	}
}

// TestSuppression verifies directive handling end to end: the suppress
// fixture package must report exactly three findings — the one whose
// directive names the wrong analyzer, the misspelled analyzer name, and the
// one whose directive sits inside a closure and therefore must not suppress
// the enclosing body.
func TestSuppression(t *testing.T) {
	m := loadFixture(t, "src")
	var pkgs []*Package
	for _, p := range m.Pkgs {
		if p.Name == "suppress" {
			pkgs = append(pkgs, p)
		}
	}
	if len(pkgs) != 1 {
		t.Fatalf("suppress fixture package not loaded")
	}
	findings := RunPackages(m, Analyzers(), pkgs)
	if len(findings) != 3 {
		t.Fatalf("suppress package: got %d findings, want 3 (wrong analyzer, misspelled name, closure-scoped directive): %v", len(findings), findings)
	}
	for _, f := range findings {
		if !strings.Contains(filepath.ToSlash(f.Pos.Filename), "suppress/suppress.go") {
			t.Errorf("finding outside suppress.go: %v", f)
		}
	}
	if f := findings[0]; f.Analyzer != "lockdiscipline" || !strings.Contains(f.Message, "channel send") {
		t.Errorf("first surviving finding should be the wrong-analyzer send, got %v", f)
	}
	if f := findings[1]; f.Analyzer != ignoreDirective || !strings.Contains(f.Message, `"determinsm"`) {
		t.Errorf("second finding should report the misspelled analyzer name, got %v", f)
	}
	if f := findings[2]; f.Analyzer != "lockdiscipline" || !strings.Contains(f.Message, "channel receive") {
		t.Errorf("third surviving finding should be the receive the closure-scoped directive leaves standing, got %v", f)
	}
}

// TestSelfClean is the one run of the analyzer suite over the ScrubJay
// module itself, tests included: every true positive has been fixed and
// every justified exception carries a //sjvet:ignore directive naming a
// live analyzer. There is no baseline — any finding fails.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Pkgs) < 20 {
		t.Fatalf("expected the full module to load, got %d packages", len(m.Pkgs))
	}
	for _, f := range Run(m, Analyzers()) {
		t.Errorf("finding: %s", formatFindings(m, []Finding{f}))
	}
}
