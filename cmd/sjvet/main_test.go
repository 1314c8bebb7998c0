package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scrubjay/internal/lint"
)

// fixture returns the path to the internal/lint per-analyzer fixture module.
func fixture(t *testing.T) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunTextOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixture(t), "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture has findings); stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, analyzer := range []string{"[purity]", "[determinism]", "[lockdiscipline]", "[leakcheck]"} {
		if !strings.Contains(out, analyzer) {
			t.Errorf("output missing %s findings:\n%s", analyzer, out)
		}
	}
	if !strings.Contains(out, "purity/purity.go:") {
		t.Errorf("findings should use module-relative paths:\n%s", out)
	}
}

func TestRunJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixture(t), "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	findings, err := lint.DecodeJSON(stdout.Bytes())
	if err != nil {
		t.Fatalf("output is not valid findings JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("JSON output has no findings")
	}
	for _, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
	}
}

func TestRunPackageSelection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", fixture(t), "./rdd"}, &stdout, &stderr); code != 0 {
		t.Errorf("clean fixture package: exit = %d, want 0; out: %s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-C", fixture(t), "./purity"}, &stdout, &stderr); code != 1 {
		t.Errorf("dirty fixture package: exit = %d, want 1", code)
	}
	if out := stdout.String(); strings.Contains(out, "locks/locks.go") {
		t.Errorf("selection leaked other packages' findings:\n%s", out)
	}
	stdout.Reset()
	if code := run([]string{"-C", fixture(t), "./nosuchpkg"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown pattern: exit = %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	want := lint.AnalyzerNames(lint.Analyzers())
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name+":") {
			t.Errorf("-list line %d = %q, want the %s analyzer", i, lines[i], name)
		}
	}
}

// TestRunAnalyzerFilter: -run restricts the suite and keeps the exit-code
// contract (0 clean / 1 findings / 2 usage).
func TestRunAnalyzerFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", fixture(t), "-run", "purity,determinism", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-run purity,determinism: exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.Contains(line, "[purity]") && !strings.Contains(line, "[determinism]") {
			t.Errorf("-run leaked a foreign analyzer's finding: %s", line)
		}
	}
	if !strings.Contains(stdout.String(), "[determinism]") {
		t.Errorf("expected determinism findings:\n%s", stdout.String())
	}

	// The purity package only violates purity: the other analyzers find
	// nothing there.
	stdout.Reset()
	if code := run([]string{"-C", fixture(t), "-run", "frameimmut,leakcheck", "./purity"}, &stdout, &stderr); code != 0 {
		t.Errorf("-run frameimmut,leakcheck ./purity: exit = %d, want 0; stdout: %s", code, stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", fixture(t), "-run", "nosuchanalyzer", "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("-run with an unknown analyzer: exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "nosuchanalyzer") {
		t.Errorf("diagnostic should name the unknown analyzer: %s", stderr.String())
	}
}

// TestRunBrokenModule: a module that fails type-checking must exit 2 with a
// diagnostic, never panic.
func TestRunBrokenModule(t *testing.T) {
	broken, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", broken, "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("broken module: exit = %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "type-checking") {
		t.Errorf("diagnostic should mention type-checking, got: %s", stderr.String())
	}
}

// TestRunSarif: -sarif writes a valid log whose results mirror the text
// findings, including on a clean package selection (empty results array).
func TestRunSarif(t *testing.T) {
	dir := t.TempDir()
	sarifPath := filepath.Join(dir, "out.sarif")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", fixture(t), "-sarif", sarifPath, "./purity"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": "2.1.0"`) || !strings.Contains(string(data), `"ruleId": "purity"`) {
		t.Errorf("SARIF log missing version or purity results:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-C", fixture(t), "-sarif", sarifPath, "./rdd"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean selection exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	data, err = os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"results": []`) {
		t.Errorf("clean run should still write a log with empty results:\n%s", data)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, path string
		want      bool
	}{
		{"./...", "scrubjay/internal/rdd", true},
		{"all", "scrubjay/internal/rdd", true},
		{".", "scrubjay", true},
		{"./internal/rdd", "scrubjay/internal/rdd", true},
		{"./internal/rdd", "scrubjay/internal/rddx", false},
		{"./internal/...", "scrubjay/internal/derive", true},
		{"./internal/...", "scrubjay/cmd/scrubjay", false},
		{"scrubjay/internal/rdd", "scrubjay/internal/rdd", true},
		{"scrubjay/internal/...", "scrubjay/internal/lint", true},
	}
	for _, c := range cases {
		if got := matchPattern("scrubjay", c.pat, c.path); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}
