package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadEdgeLayouts loads the edge-layout fixture module: a package
// directory holding only _test.go files (no package proper to analyze), a
// vendored subdirectory containing non-Go garbage, and a per-platform
// file pair in the ordinary package whose twin declarations collide
// unless build constraints are honoured. The loader must skip all of
// them and come back with just the ordinary package and the one platform
// file that matches.
func TestLoadEdgeLayouts(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "edge"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(edge): %v", err)
	}
	var paths []string
	for _, p := range m.Pkgs {
		paths = append(paths, p.Path)
	}
	if len(paths) != 1 || paths[0] != "sjvetedge/ok" {
		t.Fatalf("LoadModule(edge) loaded %v, want exactly [sjvetedge/ok]", paths)
	}
	if n := len(m.Pkgs[0].Files); n != 2 {
		t.Errorf("LoadModule(edge) parsed %d files in ok, want 2 (ok.go + one platform file)", n)
	}
}

// TestLoadBrokenModule loads the fixture module with a type error: the
// loader must return a diagnostic naming the package, never panic.
func TestLoadBrokenModule(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = LoadModule(root)
	if err == nil {
		t.Fatal("LoadModule(broken) succeeded; want a type-check diagnostic")
	}
	if !strings.Contains(err.Error(), "type-checking") || !strings.Contains(err.Error(), "sjvetbroken/bad") {
		t.Errorf("diagnostic should name the failing package, got: %v", err)
	}
}
