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
	m, err := LoadModule(root, LoadOptions{})
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
// to it, frame carries the frameimmut finding, the pipeline package is
// clean, and module-wide every analyzer fires at least once.
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
	for _, name := range []string{"ctxflow", "determinism", "lockdiscipline", "purity"} {
		if n := perPkg["engine"][name]; n != 1 {
			t.Errorf("dirty package engine: analyzer %q reported %d findings, want exactly 1", name, n)
		}
	}
	if n := perPkg["frame"]["frameimmut"]; n == 0 {
		t.Error("frame package should carry at least one frameimmut finding")
	}
	for _, a := range Analyzers() {
		if total[a.Name] == 0 {
			t.Errorf("analyzer %q produced no findings on the multi fixture module", a.Name)
		}
	}
}

// TestDeterministicOutput loads and analyzes each fixture module twice from
// scratch and byte-compares every emitter: text, JSON and SARIF output must
// be identical across runs so CI diffs are stable.
func TestDeterministicOutput(t *testing.T) {
	for _, fixture := range []string{"multi", "src"} {
		t.Run(fixture, func(t *testing.T) { checkDeterministic(t, fixture) })
	}
}

func checkDeterministic(t *testing.T, fixture string) {
	render := func() (string, string, string) {
		m := loadFixture(t, fixture)
		findings := Run(m, Analyzers())
		text := formatFindings(m, findings)
		j, err := EncodeJSON(findings)
		if err != nil {
			t.Fatal(err)
		}
		s, err := EncodeSARIF(findings, Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		return text, string(j), string(s)
	}
	t1, j1, s1 := render()
	t2, j2, s2 := render()
	if t1 != t2 {
		t.Errorf("text output differs between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", t1, t2)
	}
	if j1 != j2 {
		t.Error("JSON output differs between runs")
	}
	if s1 != s2 {
		t.Error("SARIF output differs between runs")
	}
	if t1 == "" {
		t.Error("determinism test rendered no findings; fixture should be dirty")
	}
}

// TestHotAnalyzerDeterminism loads and analyzes the src fixture twice with
// only the analyzers that consume interprocedural parameter facts or the CFG
// layer and byte-compares the rendered findings, so the summary, escape and
// flow layers stay map-iteration-free when run in isolation, not just under
// the full suite.
func TestHotAnalyzerDeterminism(t *testing.T) {
	selected, err := SelectAnalyzers(Analyzers(), "frameimmut,leakcheck,errflow")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		m := loadFixture(t, "src")
		return formatFindings(m, Run(m, selected))
	}
	r1, r2 := render(), render()
	if r1 != r2 {
		t.Errorf("frameimmut/leakcheck/errflow output differs between runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", r1, r2)
	}
	if r1 == "" {
		t.Error("summary-driven analyzers rendered no findings; the src fixture should be dirty")
	}
}

// TestSuppression verifies directive handling end to end: the suppress
// fixture package must report exactly two findings — the one whose
// directive names the wrong analyzer, and the one whose directive sits
// inside a closure and therefore must not suppress the enclosing body.
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
	if len(findings) != 2 {
		t.Fatalf("suppress package: got %d findings, want 2 (wrong-analyzer + closure-scoped directive): %v", len(findings), findings)
	}
	for _, f := range findings {
		if !strings.Contains(filepath.ToSlash(f.Pos.Filename), "suppress/suppress.go") {
			t.Errorf("finding outside suppress.go: %v", f)
		}
	}
	if findings[0].Analyzer != "purity" || !strings.Contains(findings[0].Message, `"n"`) {
		t.Errorf("first surviving finding should be the wrong-analyzer purity one, got %v", findings[0])
	}
	if findings[1].Analyzer != "purity" || !strings.Contains(findings[1].Message, "bump") {
		t.Errorf("second surviving finding should be the leaked closure-directive purity one (the call to bump), got %v", findings[1])
	}
}

// TestSelfClean enforces the acceptance criterion that sjvet runs clean on
// the ScrubJay module itself, tests included: every true positive has been
// fixed and every justified exception carries a //sjvet:ignore directive.
// There is no baseline — any finding fails.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root, LoadOptions{IncludeTests: true})
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
