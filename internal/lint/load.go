package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package of the loaded module.
type Package struct {
	// Path is the import path (modulePath + relative directory).
	Path string
	// Dir is the absolute directory the package lives in.
	Dir string
	// Name is the package name from the source files.
	Name string
	// Files are the parsed files, in deterministic (sorted filename) order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's expression and object facts.
	Info *types.Info

	// modPath is the owning module's path (for module-internal tests).
	modPath string
}

// Module is a loaded, fully type-checked Go module.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
	// Fset is the shared position table.
	Fset *token.FileSet
	// Pkgs are the module's packages in dependency (topological) order.
	Pkgs []*Package
}

// Lookup returns the package with the given import path.
func (m *Module) Lookup(importPath string) *Package {
	for _, p := range m.Pkgs {
		if p.Path == importPath {
			return p
		}
	}
	return nil
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks up from dir to the nearest directory with a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// stdlib is the process's one standard-library importer. Type-checking the
// standard library from GOROOT source is most of a module load, so every
// load shares the packages the first one checked. The "source" importer
// is not safe for concurrent use and its packages carry positions in fset,
// so a load holds mu from start to end and every Module shares fset.
var stdlib struct {
	mu   sync.Mutex
	fset *token.FileSet
	imp  types.Importer
}

// LoadModule parses and type-checks every package of the module rooted at
// root, _test.go files of each package included (external _test packages
// are skipped). Standard-library imports are type-checked from GOROOT
// source, once per process (see stdlib); imports outside the module and
// the standard library are an error (the ScrubJay module is
// dependency-free).
func LoadModule(root string) (*Module, error) {
	stdlib.mu.Lock()
	defer stdlib.mu.Unlock()
	if stdlib.imp == nil {
		stdlib.fset = token.NewFileSet()
		stdlib.imp = importer.ForCompiler(stdlib.fset, "source", nil)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	match := moduleRe.FindSubmatch(modData)
	if match == nil {
		return nil, fmt.Errorf("lint: %s/go.mod has no module directive", root)
	}
	m := &Module{Root: root, Path: string(match[1]), Fset: stdlib.fset}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := parseDir(m, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sorted, err := topoSort(m.Path, pkgs)
	if err != nil {
		return nil, err
	}
	if err := typeCheck(m, sorted); err != nil {
		return nil, err
	}
	m.Pkgs = sorted
	return m, nil
}

// packageDirs walks the module tree collecting directories that hold Go
// files, skipping testdata, vendor, hidden and underscore directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			// A nested module is its own world.
			if p != root {
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses one directory into a Package (nil when the directory holds
// no files in scope).
func parseDir(m *Module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		name string
		file *ast.File
		test bool
	}
	var files []parsed
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		// Honour build constraints (//go:build lines and _GOOS/_GOARCH
		// filename suffixes) for the current platform, as the go tool
		// would — otherwise per-platform file pairs type-check together
		// and collide on their shared declarations.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, parsed{name: f.Name.Name, file: f, test: isTest})
	}
	if len(files) == 0 {
		return nil, nil
	}
	// The package proper is named by its non-test files; external test
	// packages (package foo_test) are skipped — they exercise the public
	// API and hold no engine invariants of their own.
	pkgName := ""
	for _, f := range files {
		if !f.test {
			pkgName = f.name
			break
		}
	}
	if pkgName == "" {
		return nil, nil
	}
	pkg := &Package{Dir: dir, Name: pkgName, modPath: m.Path}
	for _, f := range files {
		if f.name == pkgName {
			pkg.Files = append(pkg.Files, f.file)
		}
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		pkg.Path = m.Path
	} else {
		pkg.Path = path.Join(m.Path, filepath.ToSlash(rel))
	}
	return pkg, nil
}

// imports lists the module-internal import paths of a package.
func imports(modPath string, pkg *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// topoSort orders packages so every package follows its intra-module
// dependencies.
func topoSort(modPath string, pkgs []*Package) ([]*Package, error) {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := map[string]int{}
	var out []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		state[p.Path] = visiting
		for _, dep := range imports(modPath, p) {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p.Path] = done
		out = append(out, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// moduleImporter resolves module-internal imports to already-checked
// packages and everything else through the shared GOROOT source importer
// (the caller holds stdlib.mu).
type moduleImporter struct {
	modPath string
	checked map[string]*types.Package
}

func (mi *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := mi.checked[p]; ok {
		return pkg, nil
	}
	if p == mi.modPath || strings.HasPrefix(p, mi.modPath+"/") {
		return nil, fmt.Errorf("lint: internal package %s not yet checked (import cycle?)", p)
	}
	return stdlib.imp.Import(p)
}

// typeCheck runs go/types over the packages in dependency order.
func typeCheck(m *Module, pkgs []*Package) error {
	mi := &moduleImporter{
		modPath: m.Path,
		checked: map[string]*types.Package{},
	}
	for _, pkg := range pkgs {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{Importer: mi}
		tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		mi.checked[pkg.Path] = tpkg
	}
	return nil
}
