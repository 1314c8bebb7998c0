// Command sjvet is ScrubJay's static-analysis gate: it loads the module,
// type-checks every package, and runs the internal/lint analyzer suite:
//
//   - ctxflow: dropped or ignored context plumbing on cancellable paths
//   - determinism: time/rand/map-order nondeterminism in derivation code
//   - errflow: errors overwritten or discarded before any path reads them,
//     and ExecFailures flattened into generic errors
//   - frameimmut: writes to published (shared) frame storage
//   - leakcheck: conns/files/tickers/spans not released on every CFG path
//   - lockdiscipline: blocking operations while holding a mutex
//   - purity: impure rdd/kernel compute closures
//
// Each analyzer earns its place by catching a one-line mutation of the real
// tree (internal/lint TestRealTreeWitnesses). Any finding is printed as
// file:line:col: [analyzer] message and the process exits nonzero, so sjvet
// slots directly into CI next to go vet. There is no baseline: the module
// is clean, and every finding fails. Flow-sensitive findings (errflow,
// leakcheck) carry the control-flow path that demonstrates them: indented
// step lines in text output and SARIF codeFlows in the -sarif artifact.
//
// Usage:
//
//	sjvet [-json] [-tests] [-list] [-run a,b] [-timing] [-C dir] [-sarif file] [packages]
//
// -run restricts the run to a comma-separated subset of analyzers (e.g.
// -run leakcheck,errflow). -timing prints the wall-clock cost of each
// analyzer (and the shared summary build stage) to stderr, so a regression
// in analysis cost is visible before it blows the CI budget.
//
// Package patterns are module-relative ("./...", "./internal/rdd",
// "scrubjay/internal/derive/..."); the default and "./..." analyze the whole
// module. Interprocedural summaries are always computed over the whole
// module, so scoping the analysis to one package still sees helper
// functions elsewhere. Findings are suppressed with
//
//	//sjvet:ignore <analyzer> -- reason
//
// on the offending line or the line above it (scoped to the enclosing
// function). -sarif writes a SARIF 2.1.0 log of the findings for CI
// artifact upload.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strings"

	"scrubjay/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sjvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	withTests := fs.Bool("tests", false, "also analyze _test.go files")
	list := fs.Bool("list", false, "list analyzers and exit")
	chdir := fs.String("C", "", "directory to resolve the module from (default: cwd)")
	sarifPath := fs.String("sarif", "", "write a SARIF 2.1.0 log of the findings to this file")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: the whole suite)")
	timing := fs.Bool("timing", false, "print per-analyzer wall-clock timing to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runNames != "" {
		var err error
		analyzers, err = lint.SelectAnalyzers(analyzers, *runNames)
		if err != nil {
			fmt.Fprintln(stderr, "sjvet:", err)
			return 2
		}
	}

	dir := *chdir
	if dir == "" {
		dir = "."
	}
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	mod, err := lint.LoadModule(root, lint.LoadOptions{IncludeTests: *withTests})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	selected, err := selectPackages(mod, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// Analyze only the selected packages, but give the interprocedural layer
	// the whole module so helper summaries are complete.
	findings, timings := lint.RunPackagesTimed(mod, analyzers, selected)
	relativize(findings, root)
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(stderr, "sjvet: timing %-16s %8.1fms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
		}
	}

	if *sarifPath != "" {
		data, err := lint.EncodeSARIF(findings, analyzers)
		if err != nil {
			fmt.Fprintln(stderr, "sjvet:", err)
			return 2
		}
		if err := os.WriteFile(*sarifPath, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "sjvet:", err)
			return 2
		}
	}

	if *jsonOut {
		data, err := lint.EncodeJSON(findings)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
			for _, s := range f.Steps {
				fmt.Fprintf(stdout, "    step %s:%d: %s\n", s.Pos.Filename, s.Pos.Line, s.Text)
			}
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "sjvet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// relativize rewrites finding (and path-step) filenames relative to the
// module root for stable, readable output.
func relativize(fs []lint.Finding, root string) {
	rel := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return name
	}
	for i := range fs {
		fs[i].Pos.Filename = rel(fs[i].Pos.Filename)
		for j := range fs[i].Steps {
			fs[i].Steps[j].Pos.Filename = rel(fs[i].Steps[j].Pos.Filename)
		}
	}
}

// selectPackages filters the module's packages by the command-line patterns.
func selectPackages(mod *lint.Module, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return mod.Pkgs, nil
	}
	keep := map[string]bool{}
	for _, pat := range patterns {
		matched := false
		for _, pkg := range mod.Pkgs {
			if matchPattern(mod.Path, pat, pkg.Path) {
				keep[pkg.Path] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("sjvet: pattern %q matches no packages", pat)
		}
	}
	var out []*lint.Package
	for _, pkg := range mod.Pkgs {
		if keep[pkg.Path] {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// matchPattern reports whether a go-style package pattern selects the import
// path. "./x" anchors at the module root; a trailing "/..." matches the
// subtree; "./..." and "all" match everything.
func matchPattern(modPath, pat, importPath string) bool {
	if pat == "all" || pat == "./..." || pat == "..." {
		return true
	}
	pat = strings.TrimSuffix(pat, "/")
	if strings.HasPrefix(pat, "./") {
		pat = path.Join(modPath, strings.TrimPrefix(pat, "./"))
	} else if pat == "." {
		pat = modPath
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return importPath == sub || strings.HasPrefix(importPath, sub+"/")
	}
	return importPath == pat
}
