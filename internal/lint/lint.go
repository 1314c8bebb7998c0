// Package lint is ScrubJay's static-analysis framework: a from-scratch
// analyzer harness on the standard library's go/ast, go/parser and go/types
// (no golang.org/x/tools dependency). It exists because the engine's core
// guarantees — data-parallel execution of derivation sequences and
// bit-for-bit reproducible query results (paper §5.3–§5.4) — rest on
// invariants the Go compiler does not check. Each Analyzer encodes one such
// invariant; TestSelfClean runs them all over the module, tests included,
// and fails on any finding.
//
// Findings are suppressible with a directive comment on the offending line
// or the line above it:
//
//	//sjvet:ignore <analyzer>[,<analyzer>...] -- reason the code is safe
//
// A bare "//sjvet:ignore" (no analyzer names) suppresses every analyzer on
// that line. A directive naming an analyzer the suite does not have
// suppresses nothing and is reported as a finding itself. The reason text
// after "--" is optional but encouraged: it should state the invariant
// that makes the flagged code correct.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Steps, when present, trace the control-flow path that produces the
	// finding (acquisition site, branch taken, exit), indented under the
	// finding in golden and TestSelfClean output.
	Steps []TraceStep
}

// TraceStep is one hop of a finding's path trace.
type TraceStep struct {
	Pos  token.Position
	Text string
}

// String renders the finding in the canonical file:line:col: [analyzer] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings and suppression comments.
	Name string
	// AppliesTo restricts the analyzer to certain packages; nil means all.
	AppliesTo func(pkg *Package) bool
	// Run inspects one package and reports findings through the pass.
	Run func(pass *Pass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet
	// IP is the module-wide interprocedural layer: call graph plus
	// per-function dataflow summaries (see interproc.go). It is computed
	// once per Run over the whole module, so summaries see every package
	// even when analysis is scoped to a few.
	IP *Interproc
	// Flow is the flow-sensitive layer (see cfg.go): a per-function CFG
	// cache shared across analyzers so each function's graph is built once
	// per run.
	Flow *Flow

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPath records a finding with a control-flow path trace attached.
func (p *Pass) ReportPath(pos token.Pos, steps []TraceStep, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Steps:    steps,
	})
}

// Analyzers returns the full ScrubJay analyzer suite, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		DeterminismAnalyzer(),
		LockDisciplineAnalyzer(),
		CtxFlowAnalyzer(),
		LeakCheckAnalyzer(),
		ErrFlowAnalyzer(),
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Run executes every analyzer over every package of the module, applies
// suppression directives, and returns the surviving findings sorted by
// position.
func Run(m *Module, analyzers []*Analyzer) []Finding {
	return RunPackages(m, analyzers, m.Pkgs)
}

// RunPackages analyzes only the selected packages, but computes the
// interprocedural summaries over the whole module first, so helper
// functions in unselected packages still contribute their dataflow facts.
// Findings are sorted by (file, line, column, analyzer, message): two runs
// over the same sources emit byte-identical output.
func RunPackages(m *Module, analyzers []*Analyzer, pkgs []*Package) []Finding {
	ip := BuildInterproc(m)
	flow := NewFlow()
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		sup, unknown := collectSuppressions(m.Fset, pkg, known)
		findings = append(findings, unknown...)
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg) {
				continue
			}
			var raw []Finding
			pass := &Pass{Analyzer: a, Pkg: pkg, Fset: m.Fset, IP: ip, Flow: flow, findings: &raw}
			a.Run(pass)
			for _, f := range raw {
				if !sup.suppressed(f) {
					findings = append(findings, f)
				}
			}
		}
	}
	SortFindings(findings)
	return findings
}

// SortFindings orders findings by (file, line, column, analyzer, message),
// so rendered findings are stable run to run.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ---- Suppression directives ----

const ignoreDirective = "sjvet:ignore"

// directive is one //sjvet:ignore occurrence: the analyzer names it
// suppresses and the source-offset range of the innermost function body
// (declaration or literal) it sits in. A directive only suppresses findings
// within its own function scope — one placed on a statement inside a
// closure must not silence the enclosing function's body, even when the two
// are textually adjacent lines.
type directive struct {
	names            []string
	scopeLo, scopeHi int // byte offsets; scopeLo < 0 means file scope
}

// suppressions indexes //sjvet:ignore directives by file and line.
type suppressions struct {
	// byLine maps filename -> comment line -> directives on that line.
	byLine map[string]map[int][]directive
}

// collectSuppressions scans the package's comments for ignore directives.
// A name outside known (the suite's analyzer names) suppresses nothing — a
// typo or a deleted analyzer — so each one comes back as a finding.
func collectSuppressions(fset *token.FileSet, pkg *Package, known map[string]bool) (*suppressions, []Finding) {
	s := &suppressions{byLine: map[string]map[int][]directive{}}
	var unknown []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				for _, name := range names {
					if name != "*" && !known[name] {
						unknown = append(unknown, Finding{
							Pos:      fset.Position(c.Pos()),
							Analyzer: ignoreDirective,
							Message:  fmt.Sprintf("unknown analyzer %q: this directive suppresses nothing", name),
						})
					}
				}
				d := directive{names: names, scopeLo: -1, scopeHi: -1}
				if body := innermostFuncBody(file, c.Pos()); body != nil {
					d.scopeLo = fset.Position(body.Pos()).Offset
					d.scopeHi = fset.Position(body.End()).Offset
				}
				pos := fset.Position(c.Pos())
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]directive{}
					s.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return s, unknown
}

// innermostFuncBody returns the body of the innermost function declaration
// or function literal whose body range contains pos, nil at file level.
func innermostFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body != nil && body.Pos() <= pos && pos <= body.End() {
			best = body // Inspect visits outer before inner: last wins
		}
		return true
	})
	return best
}

// parseIgnore parses a comment's text as an ignore directive. It returns the
// suppressed analyzer names (["*"] when none were named) and whether the
// comment is a directive at all.
func parseIgnore(text string) ([]string, bool) {
	// Like all Go directives, "//sjvet:ignore" must follow the comment
	// marker immediately — "// sjvet:ignore" is prose, not a directive.
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimPrefix(text, "/*")
	text = strings.TrimSuffix(text, "*/")
	if !strings.HasPrefix(text, ignoreDirective) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, ignoreDirective))
	// Strip the trailing "-- reason" clause.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	if rest == "" {
		return []string{"*"}, true
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	return fields, true
}

// suppressed reports whether a finding is covered by a directive on its own
// line or the line directly above it, within the same function scope: a
// directive inside a closure does not leak to the enclosing body (and an
// enclosing-scope directive still covers findings in closures it contains).
func (s *suppressions) suppressed(f Finding) bool {
	lines, ok := s.byLine[f.Pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range lines[line] {
			if d.scopeLo >= 0 && (f.Pos.Offset < d.scopeLo || f.Pos.Offset > d.scopeHi) {
				continue
			}
			for _, name := range d.names {
				if name == "*" || name == f.Analyzer {
					return true
				}
			}
		}
	}
	return false
}

// pathBase returns the last segment of an import path.
func pathBase(p string) string {
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal in file that encloses pos, preferring declarations so searches
// (e.g. "is this slice sorted later?") see the whole surrounding function.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		if fd.Body.Pos() <= pos && pos <= fd.Body.End() {
			best = fd.Body
		}
		return true
	})
	return best
}
